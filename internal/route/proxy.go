package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"bddmin/internal/obs"
	"bddmin/internal/problem"
	"bddmin/internal/serve"
)

// maxRequestBody mirrors the backend's POST /minimize bound; oversized
// bodies are rejected at the router without burning a forward.
const maxRequestBody = 8 << 20

// BackendHeader names the backend that produced a proxied response —
// the routed side of serve.BackendHeader, which the load harness reads
// to attribute completed requests to fleet members.
const BackendHeader = serve.BackendHeader

// errOversized marks a backend response that exceeded MaxProxiedBody.
// The attempt fails (and is eligible for failover) instead of silently
// replaying a truncated prefix as if it were the whole answer.
var errOversized = errors.New("response body exceeds the proxied-body limit")

// Handler returns the router's HTTP mux: POST /minimize (proxied), GET
// /healthz and GET /metrics (the router's own).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/minimize", rt.handleMinimize)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
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

// proxied is one buffered backend response on its way back to the client.
type proxied struct {
	backend    string
	status     int
	body       []byte
	conType    string
	retryAfter string
}

// write replays the buffered response verbatim, stamping the backend.
func (p *proxied) write(w http.ResponseWriter) {
	if p.conType != "" {
		w.Header().Set("Content-Type", p.conType)
	}
	if p.retryAfter != "" {
		w.Header().Set("Retry-After", p.retryAfter)
	}
	w.Header().Set(BackendHeader, p.backend)
	w.WriteHeader(p.status)
	_, _ = w.Write(p.body)
}

// handleMinimize is the routing path: parse the job far enough to know
// its placement key and its latency budget, then run the grey-failure
// request lifecycle against the ring.
func (rt *Router) handleMinimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.counters.badRequest.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "POST only"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		rt.counters.badRequest.Add(1)
		// Only an actual over-limit read is "too large"; any other body
		// read failure is the client's connection dying mid-upload.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge, serve.ErrorResponse{Error: "request body too large"})
		} else {
			writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: fmt.Sprintf("client gone or request body unreadable: %v", err)})
		}
		return
	}
	var req serve.MinimizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.counters.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: fmt.Sprintf("invalid request body: %v", err)})
		return
	}
	// The router parses the instance exactly like the backend's admission
	// path will, for the same reason bddmind's cache does: CanonicalKey
	// (via KeyHash) is the identity that makes every spelling of one
	// instance route to the one backend whose cache can answer it.
	prob, err := problem.Parse(problem.Kind(req.Format), req.Input, req.Output, req.Node)
	if err != nil {
		rt.counters.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
		return
	}
	rt.budget.deposit()
	rt.route(w, r, prob.KeyHash(), body, rt.requestDeadline(r, req.TimeoutMs))
}

// requestDeadline resolves the request's end-to-end budget: the smaller
// of the body's timeout_ms and an upstream X-Bddmind-Deadline-Ms header
// (a client context deadline, or another router ahead of this one).
// Zero means unbounded — the pre-grey-failure behavior.
func (rt *Router) requestDeadline(r *http.Request, timeoutMs int) time.Time {
	budget := time.Duration(timeoutMs) * time.Millisecond
	if hdr := r.Header.Get(serve.DeadlineHeader); hdr != "" {
		if ms, err := strconv.ParseInt(hdr, 10, 64); err == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; budget <= 0 || d < budget {
				budget = d
			}
		}
	}
	if budget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(budget)
}

// attemptResult is one forward attempt's outcome, delivered to the
// request lifecycle loop.
type attemptResult struct {
	b     *backend
	idx   int  // 1-based attempt number within the request
	hedge bool // launched as a hedge rather than a failover
	p     *proxied
	err   error
	start time.Time
}

// probeHold is a half-open probe slot granted to one of a request's
// attempts; route releases every hold it was granted when it returns,
// so a probe abandoned without an outcome cannot wedge its circuit.
type probeHold struct {
	br    *breaker
	token uint64
}

// route runs the grey-failure request lifecycle: walk the candidate list
// for key, one attempt at a time, each bounded by the attempt timeout
// and the request deadline, hedging a slow attempt after HedgeDelay,
// failing over on transport errors, timeouts, truncated or corrupt
// bodies, drain refusals and (once) 5xx answers — until a backend
// produces a response the client should see, the deadline expires, or
// every candidate is spent.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, key uint64, body []byte, deadline time.Time) {
	cands := rt.candidates(key)
	if len(cands) > rt.cfg.MaxAttempts {
		cands = cands[:rt.cfg.MaxAttempts]
	}
	var (
		results     = make(chan attemptResult, len(cands)) // sized so stragglers never block
		cancels     []context.CancelFunc
		next        int // index into cands of the next backend to try
		attempts    int // attempts actually launched
		inflight    int
		hedged      bool
		retried5xx  bool
		lastRefusal *proxied    // most recent 503 drain refusal, replayed if everything fails
		last5xx     *proxied    // most recent 5xx answer, replayed if its retry also dies
		probes      []probeHold // half-open probe slots granted to this request's attempts
		lastErr     = "no backends configured"
	)
	defer func() {
		for _, c := range cancels {
			c()
		}
		// Release any half-open probe slot still held by an attempt whose
		// outcome was never recorded (hedge loser, deadline 504, drain
		// refusal, client disconnect). abandonProbe ignores slots already
		// released by onSuccess/onFailure, so a blanket release is safe —
		// and without it an abandoned probe would refuse its backend
		// forever: a grey-failed backend passes its health probes, so no
		// readmission ever comes along to reset the circuit.
		for _, ph := range probes {
			ph.br.abandonProbe(ph.token)
		}
	}()

	// launch starts one attempt on the next circuit-admitted candidate.
	// Every attempt after the first — failover or hedge — spends one
	// retry-budget token; an empty bucket turns the failure at hand into
	// the final answer instead of feeding a retry storm.
	launch := func(hedge bool) bool {
		if attempts > 0 && !rt.budget.withdraw() {
			rt.counters.retryStarved.Add(1)
			rt.emit(obs.RouteEvent{Phase: "skipped", Key: key, Attempt: attempts, Reason: "retry-budget"})
			return false
		}
		for next < len(cands) {
			b := cands[next]
			next++
			// A "skipped" phase, not "failover": no attempt was abandoned
			// here, so the failovers counter stays untouched and traces
			// reconcile with /metrics.
			admit, probeToken := b.br.allow(time.Now(), rt.cfg.BreakerCooldown)
			if !admit {
				rt.emit(obs.RouteEvent{Phase: "skipped", Backend: b.addr, Key: key, Attempt: attempts, Reason: "breaker-open"})
				continue
			}
			if probeToken != 0 {
				probes = append(probes, probeHold{br: &b.br, token: probeToken})
			}
			attempts++
			idx, isHedge := attempts, hedge
			actx, acancel := rt.attemptContext(r.Context(), deadline)
			cancels = append(cancels, acancel)
			if isHedge {
				rt.counters.hedges.Add(1)
				rt.emit(obs.RouteEvent{Phase: "hedge", Backend: b.addr, Key: key, Attempt: idx})
			}
			inflight++
			go func(b *backend) {
				start := time.Now()
				p, err := rt.forward(actx, b, body, deadline)
				results <- attemptResult{b: b, idx: idx, hedge: isHedge, p: p, err: err, start: start}
			}(b)
			return true
		}
		return false
	}

	// deliver hands a judged backend response to the client verbatim and
	// settles the request's accounting.
	deliver := func(res attemptResult) {
		rt.counters.forwarded.Add(1)
		rt.observeAttempts(res.idx)
		if res.hedge {
			rt.counters.hedgeWins.Add(1)
		}
		rt.emit(obs.RouteEvent{
			Phase: "forwarded", Backend: res.b.addr, Key: key, Attempt: res.idx,
			Status: res.p.status, Duration: time.Since(res.start),
		})
		res.p.write(w)
	}

	// fail emits the failover transition of a judged attempt, then the
	// circuit opening it caused.
	fail := func(res attemptResult, v verdict) {
		rt.counters.failovers.Add(1)
		rt.emit(obs.RouteEvent{
			Phase: "failover", Backend: res.b.addr, Key: key, Attempt: res.idx,
			Status: statusOf(res.p), Reason: v.reason, Duration: time.Since(res.start),
		})
		rt.emitOpened(res.b, v)
	}

	// timeout504 terminates the request at its deadline.
	timeout504 := func() {
		rt.counters.deadlineExceeded.Add(1)
		rt.observeAttempts(attempts)
		rt.emit(obs.RouteEvent{Phase: "deadline-exceeded", Key: key, Attempt: attempts, Status: http.StatusGatewayTimeout})
		writeJSON(w, http.StatusGatewayTimeout, serve.ErrorResponse{Error: "deadline exceeded before a backend answered"})
	}

	if !launch(false) {
		if len(cands) > 0 {
			// Candidates existed but every circuit is open: fail fast with
			// honest backpressure instead of queueing onto sick backends.
			rt.counters.breakerFastFail.Add(1)
			rt.emit(obs.RouteEvent{Phase: "error", Key: key, Status: http.StatusServiceUnavailable, Reason: "breaker-open"})
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(rt.cfg.BreakerCooldown)))
			writeJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{
				Error:        "all backends are circuit-broken, retry later",
				RetryAfterMs: rt.cfg.BreakerCooldown.Milliseconds(),
			})
			return
		}
		rt.counters.exhausted.Add(1)
		rt.emit(obs.RouteEvent{Phase: "error", Key: key, Status: http.StatusBadGateway, Reason: "exhausted"})
		writeJSON(w, http.StatusBadGateway, serve.ErrorResponse{Error: fmt.Sprintf("no backend available (last: %s)", lastErr)})
		return
	}

	var hedgeC <-chan time.Time
	if rt.cfg.HedgeDelay > 0 && len(cands) > 1 {
		ht := time.NewTimer(rt.cfg.HedgeDelay)
		defer ht.Stop()
		hedgeC = ht.C
	}
	var deadlineC <-chan time.Time
	if !deadline.IsZero() {
		dt := time.NewTimer(time.Until(deadline))
		defer dt.Stop()
		deadlineC = dt.C
	}

	// relaunch continues the failover chain when nothing is left in
	// flight: a jittered pause (cut short by deadline or client), then
	// the next candidate. A false return means the request is settled.
	relaunch := func() bool {
		if inflight > 0 {
			// A hedge (or the original) is still racing; it is the retry.
			return true
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			timeout504()
			return false
		}
		select {
		case <-time.After(rt.backoff()):
		case <-deadlineC:
			timeout504()
			return false
		case <-r.Context().Done():
			return false
		}
		launch(false) // a false launch just lets the loop fall through to exhaustion
		return true
	}

	for inflight > 0 {
		select {
		case res := <-results:
			inflight--
			v := rt.judge(res)
			if r.Context().Err() != nil {
				// Nobody is left to answer, but the attempt's evidence still
				// counted — clients give up exactly when the fleet is sick —
				// so only the client-facing write is skipped.
				rt.emitOpened(res.b, v)
				return
			}
			if v.detail != "" {
				lastErr = fmt.Sprintf("%s: %s", res.b.addr, v.detail)
			}
			switch v.reason {
			case "":
				deliver(res)
				return
			case "5xx":
				// An idempotent, cache-keyed job answered 5xx (e.g. a shard
				// panic mid-rebuild) deserves exactly one failover; a second
				// 5xx is replayed honestly.
				last5xx = res.p
				rt.emitOpened(res.b, v)
				if retried5xx || (inflight == 0 && next >= len(cands)) {
					deliver(res)
					return
				}
				retried5xx = true
				// The retry is either an attempt already racing (designated
				// as the retry: relaunch then launches nothing) or a fresh
				// attempt launched by relaunch. Count the one-shot 5xx retry
				// only when one of the two actually exists — a starved or
				// exhausted relaunch leaves the 5xx as the final answer and
				// must not inflate the retry counters.
				racing, before, dur := inflight > 0, attempts, time.Since(res.start)
				if !relaunch() {
					return
				}
				if racing || attempts > before {
					res.b.retried5xx.Add(1)
					rt.counters.retried5xx.Add(1)
					rt.counters.failovers.Add(1)
					rt.emit(obs.RouteEvent{
						Phase: "failover", Backend: res.b.addr, Key: key, Attempt: res.idx,
						Status: res.p.status, Reason: v.reason, Duration: dur,
					})
				}
			default:
				if v.reason == "drain-503" {
					// Keep the honest 503 in hand in case the whole fleet
					// is draining.
					lastRefusal = res.p
				}
				fail(res, v)
				if !relaunch() {
					return
				}
			}
		case <-hedgeC:
			hedgeC = nil
			if !hedged && inflight > 0 && next < len(cands) {
				hedged = true
				launch(true)
			}
		case <-deadlineC:
			timeout504()
			return
		case <-r.Context().Done():
			return
		}
	}

	// Every candidate spent without a deliverable answer.
	rt.counters.exhausted.Add(1)
	rt.observeAttempts(attempts)
	switch {
	case lastRefusal != nil:
		rt.emit(obs.RouteEvent{Phase: "error", Key: key, Attempt: attempts, Status: lastRefusal.status, Reason: "all-draining"})
		lastRefusal.write(w)
	case last5xx != nil:
		// The 5xx retry itself died; the backend's own answer is still the
		// most honest thing to replay.
		rt.emit(obs.RouteEvent{Phase: "error", Key: key, Attempt: attempts, Status: last5xx.status, Reason: "5xx-exhausted"})
		last5xx.write(w)
	default:
		rt.emit(obs.RouteEvent{Phase: "error", Key: key, Attempt: attempts, Status: http.StatusBadGateway, Reason: "exhausted"})
		writeJSON(w, http.StatusBadGateway, serve.ErrorResponse{
			Error: fmt.Sprintf("no backend available (last: %s)", lastErr),
		})
	}
}

// verdict is the router's judgement of one attempt's outcome.
type verdict struct {
	// reason is why the attempt does not answer the client: "connect",
	// "timeout", "truncated", "corrupt", "drain-503", "5xx", or "canceled"
	// when the client's own disconnect canceled it. It is empty for an
	// answer the client should see (2xx, 429, other 4xx).
	reason string
	// detail describes a failure for the exhausted-fleet error body.
	detail string
	// opened reports that this outcome opened the backend's circuit.
	opened bool
}

// judge settles one attempt's outcome against its backend: the
// per-outcome counter, the circuit breaker and the failover reason. The
// live request loop and the path for results that arrive after the client
// left both call it, so an outcome counts the same whether or not anyone
// is left to answer — in-band failure evidence is most valuable exactly
// when clients are timing out against a sick fleet. An attempt error
// caused by the client's disconnect itself (context canceled) is no
// verdict on the backend and leaves it untouched. The caller emits the
// breaker-open transition (emitOpened), after its own failover event.
func (rt *Router) judge(res attemptResult) verdict {
	b := res.b
	var v verdict
	switch {
	case res.err != nil:
		v.detail = res.err.Error()
		switch {
		case errors.Is(res.err, context.Canceled):
			return verdict{reason: "canceled", detail: v.detail}
		case errors.Is(res.err, errOversized):
			v.reason = "truncated" // b.truncated already counted in forward
		case errors.Is(res.err, context.DeadlineExceeded):
			v.reason = "timeout"
			b.timeouts.Add(1)
		default:
			v.reason = "connect"
			b.errors.Add(1)
		}
	case res.p.status == http.StatusServiceUnavailable:
		// Drain refusal: the backend is shutting down but its probe may
		// not have failed yet. Draining is cooperative, not grey, so the
		// circuit stays untouched.
		b.drain503.Add(1)
		return verdict{reason: "drain-503"}
	case res.p.status >= 500:
		v.reason, v.detail = "5xx", fmt.Sprintf("HTTP %d", res.p.status)
	case res.p.status == http.StatusOK && !json.Valid(res.p.body):
		// A 200 whose body is not the JSON answer it claims to be must
		// never reach the client. The check is scoped to 200 — the only
		// success /minimize produces — so a bodyless 204 or a future
		// non-JSON success is not misread as grey failure.
		v.reason, v.detail = "corrupt", "corrupt response body"
		b.corrupt.Add(1)
	default:
		switch {
		case res.p.status == http.StatusTooManyRequests:
			// Backpressure is an answer, not a failure: it passes through
			// with Retry-After intact so the client's closed loop does its
			// job.
			b.rejected429.Add(1)
		case res.p.status >= 200 && res.p.status < 300:
			b.ok.Add(1)
		}
		// Any answer, a 4xx included, proves the backend is processing
		// requests.
		b.br.onSuccess()
		return verdict{}
	}
	v.opened = b.br.onFailure(time.Now(), rt.cfg.BreakerThreshold)
	return v
}

// emitOpened emits the breaker-open transition of a verdict that opened
// b's circuit.
func (rt *Router) emitOpened(b *backend, v verdict) {
	if v.opened {
		rt.emit(obs.RouteEvent{Phase: "breaker-open", Backend: b.addr, Reason: v.reason})
	}
}

// attemptContext bounds one forward attempt: the per-attempt timeout,
// clamped to whatever remains of the request deadline, under the
// client's own cancellation.
func (rt *Router) attemptContext(parent context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	d := rt.cfg.AttemptTimeout
	if !deadline.IsZero() {
		rem := time.Until(deadline)
		if rem < time.Millisecond {
			rem = time.Millisecond // the deadline race is settled by the lifecycle loop
		}
		if d <= 0 || rem < d {
			d = rem
		}
	}
	if d > 0 {
		return context.WithTimeout(parent, d)
	}
	return context.WithCancel(parent)
}

// statusOf is the status of a possibly-nil proxied response (0 when the
// attempt never produced one).
func statusOf(p *proxied) int {
	if p == nil {
		return 0
	}
	return p.status
}

// retrySeconds renders a Retry-After header value (integer seconds,
// minimum 1).
func retrySeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// forward sends one POST /minimize to b and buffers the whole response.
// The attempt context rides along, so an abandoned attempt (timeout,
// hedge loss, vanished client) cancels the backend work through
// bddmind's own Budget.Ctx plumbing. The remaining request budget is
// propagated in serve.DeadlineHeader so the backend's admission maps it
// onto bdd.Budget.Deadline — a failover retry arrives with a smaller
// budget than the original attempt did, never a larger one. A response
// bigger than MaxProxiedBody fails the attempt with errOversized rather
// than truncating silently.
func (rt *Router) forward(ctx context.Context, b *backend, body []byte, deadline time.Time) (*proxied, error) {
	b.requests.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.addr+"/minimize", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if !deadline.IsZero() {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(serve.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	res, err := rt.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	limit := rt.cfg.MaxProxiedBody
	data, err := io.ReadAll(io.LimitReader(res.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		b.truncated.Add(1)
		return nil, fmt.Errorf("%s: %w (over %d bytes)", b.addr, errOversized, limit)
	}
	return &proxied{
		backend:    b.addr,
		status:     res.StatusCode,
		body:       data,
		conType:    res.Header.Get("Content-Type"),
		retryAfter: res.Header.Get("Retry-After"),
	}, nil
}
