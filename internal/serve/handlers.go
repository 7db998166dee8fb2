package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bddmin/internal/core"
	"bddmin/internal/obs"
	"bddmin/internal/problem"
)

// maxRequestBody bounds POST /minimize bodies (PLA/BLIF sources are text;
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
func (s *Server) reject(w http.ResponseWriter, id uint64, status int, reason string, body ErrorResponse) {
	s.emitServe(obs.ServeEvent{
		Phase: "rejected", ID: id, Shard: -1, Status: status,
		Reason: reason, Queue: len(s.queue),
	})
	writeJSON(w, status, body)
}

// handleMinimize is the admission path: parse, validate, consult the
// result cache (a hit never consumes a queue slot), map limits onto a
// budget, try the bounded queue, then wait for the shard's response.
func (s *Server) handleMinimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	id := s.nextID.Add(1)
	var req MinimizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		s.counters.invalid.Add(1)
		// An over-limit body is the client's mistake (413); anything else —
		// malformed JSON or a connection that died mid-upload — is 400.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.reject(w, id, http.StatusRequestEntityTooLarge, "too-large", ErrorResponse{Error: "request body too large"})
			return
		}
		s.reject(w, id, http.StatusBadRequest, "bad-json", ErrorResponse{Error: fmt.Sprintf("invalid request body: %v", err)})
		return
	}
	prob, err := problem.Parse(problem.Kind(req.Format), req.Input, req.Output, req.Node)
	if err != nil {
		s.counters.invalid.Add(1)
		s.reject(w, id, http.StatusBadRequest, "bad-instance", ErrorResponse{Error: err.Error()})
		return
	}
	if prob.Vars > s.cfg.MaxVars {
		s.counters.invalid.Add(1)
		s.reject(w, id, http.StatusRequestEntityTooLarge, "too-large",
			ErrorResponse{Error: fmt.Sprintf("instance has %d variables, server accepts at most %d", prob.Vars, s.cfg.MaxVars)})
		return
	}
	name := req.Heuristic
	if name == "" {
		name = "osm_bt"
	}
	heu := core.ByName(name)
	if heu == nil {
		s.counters.invalid.Add(1)
		s.reject(w, id, http.StatusBadRequest, "bad-heuristic", ErrorResponse{Error: fmt.Sprintf("unknown heuristic %q", name)})
		return
	}
	enq := time.Now()

	// Front line: the result cache, keyed on the heuristic and the
	// normalized instance (cache.go). Trace requests bypass it — their
	// point is to observe a fresh run.
	key := ""
	if s.cache != nil && !req.Trace {
		key = name + "|" + prob.CanonicalKey()
		if stored := s.cache.get(key); stored != nil {
			s.cache.reqHits.Add(1)
			s.lat.observe(time.Since(enq).Nanoseconds())
			s.emitServe(obs.ServeEvent{
				Phase: "cache_hit", ID: id, Shard: -1,
				Format: string(prob.Kind), Heuristic: name, Queue: len(s.queue),
			})
			writeJSON(w, http.StatusOK, cachedResponse(stored, id))
			return
		}
	}

	t := &task{
		id:       id,
		prob:     prob,
		heu:      heu,
		trace:    req.Trace,
		nodesCap: clampNodes(req.BudgetNodes, s.cfg.MaxNodesPerRequest),
		deadline: headerDeadline(r, deadlineFrom(s.timeoutFor(req.TimeoutMs))),
		ctx:      r.Context(),
		enq:      enq,
		resp:     make(chan *MinimizeResponse, 1),
	}
	switch s.enqueue(t) {
	case drainRefused:
		s.counters.drainRejects.Add(1)
		s.reject(w, id, http.StatusServiceUnavailable, "draining", ErrorResponse{Error: "server is draining"})
		return
	case queueFull:
		s.counters.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		s.reject(w, id, http.StatusTooManyRequests, "queue-full",
			ErrorResponse{Error: "queue full, retry later", RetryAfterMs: s.cfg.RetryAfter.Milliseconds()})
		return
	}
	s.counters.accepted.Add(1)
	s.emitServe(obs.ServeEvent{
		Phase: "accepted", ID: id, Shard: -1,
		Format: string(prob.Kind), Heuristic: name, Queue: len(s.queue),
	})
	resp := <-t.resp
	if resp == nil {
		// Either the client vanished before the shard picked the job up,
		// or the job failed internally; the counters already know which.
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "minimization failed"})
		return
	}
	// Complete results only, so a degraded cover is never replayed to a
	// later request.
	if key != "" && !resp.Degraded {
		s.cache.put(key, resp)
	}
	writeJSON(w, http.StatusOK, resp)
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
// under the server's default and clamp.
func (s *Server) timeoutFor(timeoutMs int) time.Duration {
	d := time.Duration(timeoutMs) * time.Millisecond
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
	hdr := r.Header.Get(DeadlineHeader)
	if hdr == "" {
		return base
	}
	ms, err := strconv.ParseInt(hdr, 10, 64)
	if err != nil || ms <= 0 {
		return base
	}
	d := time.Now().Add(time.Duration(ms) * time.Millisecond)
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
