package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bddmin/internal/core"
	"bddmin/internal/obs"
	"bddmin/internal/problem"
)

// maxRequestBody bounds job request bodies (PLA/BLIF sources are text;
// 8 MiB is far beyond any realistic netlist this engine can chew).
const maxRequestBody = 8 << 20

// Handler returns the service's HTTP mux: POST /minimize, POST
// /optimize-network, GET /healthz, GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/minimize", s.handleMinimize)
	mux.HandleFunc("/optimize-network", s.handleOptimizeNetwork)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// writeJSON emits one JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

// reject finishes an unadmitted request: counter, lifecycle event, error
// body.
func (s *Server) reject(w http.ResponseWriter, id uint64, counter *atomic.Uint64, status int, reason string, body ErrorResponse) {
	counter.Add(1)
	s.emitServe(obs.ServeEvent{
		Phase: "rejected", ID: id, Shard: -1, Status: status,
		Reason: reason, Queue: len(s.queue),
	})
	writeJSON(w, status, body)
}

// job is a decoded request as its endpoint parsed it: what admission checks
// the same way for every endpoint, and the run function a shard executes.
type job struct {
	format string // input format label of the serve events
	// key makes the job cacheable: the result cache keys on the heuristic
	// and key, the instance's problem.Key. "" for jobs that are never
	// cached.
	key string
	// load finishes a parse that stopped at the key, on a cache miss: it
	// sets width, tooWide and run. Nil when the parse set them.
	load func(j *job) error
	// width is the instance's variable count or the network's input count;
	// tooWide formats the start of the 413 message for a width over
	// MaxVars, e.g. "network has %d inputs".
	width       int
	tooWide     string
	heuristic   string
	budgetNodes uint64
	timeoutMs   int
	trace       bool
	run         func(w *worker, t *task) reply
}

// handleJob is the admission path of every job endpoint: POST only, a
// bounded decode of the body into req, parse, the result cache (a hit
// never builds the instance or consumes a queue slot), the rest of the
// parse, the width and heuristic checks, the request budget, the bounded
// queue, then the wait for the shard's reply. failed is the error body of
// a job that fails on its shard.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, req any, failed string, parse func() (job, error)) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	id := s.nextID.Add(1)
	invalid := &s.counters.invalid
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(req); err != nil {
		// An over-limit body is the client's mistake (413); anything else —
		// malformed JSON or a connection that died mid-upload — is 400.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.reject(w, id, invalid, http.StatusRequestEntityTooLarge, "too-large", ErrorResponse{Error: "request body too large"})
			return
		}
		s.reject(w, id, invalid, http.StatusBadRequest, "bad-json", ErrorResponse{Error: fmt.Sprintf("invalid request body: %v", err)})
		return
	}
	j, err := parse()
	if err != nil {
		s.reject(w, id, invalid, http.StatusBadRequest, "bad-instance", ErrorResponse{Error: err.Error()})
		return
	}
	name := j.heuristic
	if name == "" {
		name = "osm_bt"
	}
	heu := core.ByName(name)

	// Front line: the result cache, keyed on the heuristic and the
	// instance's key (cache.go) and probed before the instance is built.
	// Trace requests bypass it — their point is to observe a fresh run. An
	// unknown heuristic has no entries, and every check below passed for
	// the request that stored an entry, so a hit skips nothing a request
	// with its key could fail.
	key := ""
	if s.cache != nil && j.key != "" && !j.trace && heu != nil {
		// Aliases such as "sched" resolve to one heuristic: the key and
		// every event use its own name, the one the response reports.
		key = heu.Name() + "|" + j.key
		start := time.Now()
		if stored := s.cache.get(key); stored != nil {
			s.cache.reqHits.Add(1)
			s.lat.observe(time.Since(start).Nanoseconds())
			s.emitServe(obs.ServeEvent{
				Phase: "cache_hit", ID: id, Shard: -1,
				Format: j.format, Heuristic: heu.Name(), Queue: len(s.queue),
			})
			writeJSON(w, http.StatusOK, cachedResponse(stored, id))
			return
		}
	}
	if j.load != nil {
		if err := j.load(&j); err != nil {
			s.reject(w, id, invalid, http.StatusBadRequest, "bad-instance", ErrorResponse{Error: err.Error()})
			return
		}
	}
	if j.width > s.cfg.MaxVars {
		s.reject(w, id, invalid, http.StatusRequestEntityTooLarge, "too-large",
			ErrorResponse{Error: fmt.Sprintf(j.tooWide+", server accepts at most %d", j.width, s.cfg.MaxVars)})
		return
	}
	if heu == nil {
		s.reject(w, id, invalid, http.StatusBadRequest, "bad-heuristic", ErrorResponse{Error: fmt.Sprintf("unknown heuristic %q", name)})
		return
	}
	name = heu.Name()
	enq := time.Now()

	t := &task{
		id:       id,
		format:   j.format,
		heu:      heu,
		trace:    j.trace,
		nodesCap: clampNodes(j.budgetNodes, s.cfg.MaxNodesPerRequest),
		deadline: headerDeadline(r, deadlineFrom(s.timeoutFor(j.timeoutMs))),
		ctx:      r.Context(),
		enq:      enq,
		run:      j.run,
		done:     make(chan reply, 1),
	}
	switch s.enqueue(t) {
	case drainRefused:
		s.reject(w, id, &s.counters.drainRejects, http.StatusServiceUnavailable, "draining", ErrorResponse{Error: "server is draining"})
		return
	case queueFull:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		s.reject(w, id, &s.counters.rejected, http.StatusTooManyRequests, "queue-full",
			ErrorResponse{Error: "queue full, retry later", RetryAfterMs: s.cfg.RetryAfter.Milliseconds()})
		return
	}
	s.counters.accepted.Add(1)
	s.emitServe(obs.ServeEvent{
		Phase: "accepted", ID: id, Shard: -1,
		Format: j.format, Heuristic: name, Queue: len(s.queue),
	})
	resp := <-t.done
	if resp == nil {
		// Either the client vanished before the shard picked the job up,
		// or the job failed internally; the counters already know which.
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: failed})
		return
	}
	// Complete results only, so a degraded cover is never replayed to a
	// later request.
	if m, ok := resp.(*MinimizeResponse); ok && key != "" && !m.Degraded {
		s.cache.put(key, m)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMinimize admits one minimization job: a single instance in any of
// the three input formats, minimized on a shard's private manager.
func (s *Server) handleMinimize(w http.ResponseWriter, r *http.Request) {
	var req MinimizeRequest
	s.handleJob(w, r, &req, "minimization failed", func() (job, error) {
		key, load, err := problem.Key(problem.Kind(req.Format), req.Input, req.Output, req.Node)
		if err != nil {
			return job{}, err
		}
		return job{
			format: req.Format, key: key,
			heuristic: req.Heuristic, budgetNodes: req.BudgetNodes, timeoutMs: req.TimeoutMs, trace: req.Trace,
			load: func(j *job) error {
				prob, err := load()
				if err != nil {
					return err
				}
				j.width, j.tooWide = prob.Vars, "instance has %d variables"
				j.run = func(w *worker, t *task) reply { return s.minimize(w, t, prob) }
				return nil
			},
		}, nil
	})
}

// clampNodes combines the request's node cap with the server-wide one:
// the smaller nonzero bound wins.
func clampNodes(req, server uint64) uint64 {
	switch {
	case server == 0:
		return req
	case req == 0 || req > server:
		return server
	}
	return req
}

// timeoutFor resolves timeout_ms to the effective per-request timeout
// under the server's default and clamp. A value MillisBudget ignores is
// no timeout_ms at all.
func (s *Server) timeoutFor(timeoutMs int) time.Duration {
	d := MillisBudget(int64(timeoutMs))
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d < 0 {
		d = 0
	}
	return d
}

// deadlineFrom maps an effective timeout onto an absolute deadline; zero
// means unbounded.
func deadlineFrom(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// headerDeadline tightens a body-derived deadline with the remaining
// budget a fronting router propagated in DeadlineHeader. The header only
// ever *shrinks* the budget — a retried attempt arrives with less time
// than the original request asked for (see the DeadlineHeader doc
// comment).
func headerDeadline(r *http.Request, base time.Time) time.Time {
	budget := DeadlineBudget(r.Header)
	if budget <= 0 {
		return base
	}
	d := time.Now().Add(budget)
	if base.IsZero() || d.Before(base) {
		return d
	}
	return base
}

// retryAfterSeconds renders the Retry-After header (integer seconds,
// minimum 1 — the JSON body carries the millisecond-precision hint).
func retryAfterSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while in-flight work completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.admit.RLock()
	draining := s.draining
	s.admit.RUnlock()
	body := HealthResponse{
		State:      "ok",
		Shards:     len(s.workers),
		QueueDepth: len(s.queue),
		QueueCap:   s.cfg.QueueDepth,
	}
	status := http.StatusOK
	if draining {
		body.State = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// handleMetrics serves the operational snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsSnapshot())
}
