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

// maxProxiedBody bounds a buffered backend response. A larger one fails
// the attempt; it is never truncated and replayed as if complete.
const maxProxiedBody = 32 << 20

// BackendHeader names the backend that produced a proxied response —
// the routed side of serve.BackendHeader, which the load harness reads
// to attribute completed requests to fleet members.
const BackendHeader = serve.BackendHeader

// errOversized marks a backend response that exceeded maxProxiedBody.
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

// handleMinimize is the routing path: read the job far enough to know
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
	// Placement is the cache key: problem.Key is the identity bddmind's
	// result cache is keyed on, so every spelling of one instance routes
	// to the one backend whose cache can answer it. A BLIF request that
	// names its node is keyed from its text and no netlist is built here;
	// if it does not build, the backend's 400 comes back verbatim.
	key, _, err := problem.Key(problem.Kind(req.Format), req.Input, req.Output, req.Node)
	if err != nil {
		rt.counters.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
		return
	}
	rt.budget.deposit()
	rt.route(w, r, problem.KeyHash(key), body, requestDeadline(r, req.TimeoutMs))
}

// requestDeadline resolves the request's end-to-end budget: the smaller
// of the body's timeout_ms and an upstream X-Bddmind-Deadline-Ms header
// (a client context deadline, or another router ahead of this one).
// Either value is read through serve.MillisBudget, so one too large for a
// time.Duration counts as absent. Zero means unbounded — the
// pre-grey-failure behavior.
func requestDeadline(r *http.Request, timeoutMs int) time.Time {
	budget := serve.MillisBudget(int64(timeoutMs))
	if d := serve.DeadlineBudget(r.Header); d > 0 && (budget <= 0 || d < budget) {
		budget = d
	}
	if budget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(budget)
}

// route runs the grey-failure request lifecycle for key, one attempt at a
// time: admit the next ring candidate through its circuit breaker and,
// after the first attempt, the retry budget; forward to it under the
// attempt timeout and the request deadline; judge the outcome, then
// deliver it or fail over after a jittered backoff — on transport errors,
// timeouts, truncated or corrupt bodies, drain refusals and (once) 5xx
// answers — until a backend produces a response the client should see,
// the deadline expires, or every candidate is spent.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, key uint64, body []byte, deadline time.Time) {
	ctx := r.Context()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	var (
		cands       = rt.candidates(key)
		next        int            // index into cands of the next backend to try
		attempts    int            // attempts sent
		lastRefusal *proxied       // most recent 503 drain refusal, replayed if everything fails
		last5xx     *proxied       // the 5xx answer that earned the retry, replayed if the retry dies
		retry5xx    *backend       // last5xx's backend until its retry is admitted
		failover5xx obs.RouteEvent // retry5xx's failover, emitted once the retry exists
		lastErr     = "no backends configured"
	)

	// deliver hands a judged backend response to the client verbatim and
	// settles the request's accounting.
	deliver := func(b *backend, p *proxied, dur time.Duration) {
		rt.counters.forwarded.Add(1)
		rt.observeAttempts(attempts)
		rt.emit(obs.RouteEvent{
			Phase: "forwarded", Backend: b.addr, Key: key, Attempt: attempts,
			Status: p.status, Duration: dur,
		})
		p.write(w)
	}
	// expired settles a request whose own context ended before a backend
	// answered: a 504 at the deadline, nothing when the client left.
	expired := func() {
		if r.Context().Err() != nil {
			return
		}
		rt.counters.deadlineExceeded.Add(1)
		rt.observeAttempts(attempts)
		rt.emit(obs.RouteEvent{Phase: "deadline-exceeded", Key: key, Attempt: attempts, Status: http.StatusGatewayTimeout})
		writeJSON(w, http.StatusGatewayTimeout, serve.ErrorResponse{Error: "deadline exceeded before a backend answered"})
	}

	for {
		if attempts > 0 {
			// Fail over after a jittered pause, cut short by the deadline
			// or the client. Every attempt after the first spends one
			// retry-budget token; an empty bucket turns the failure at hand
			// into the final answer instead of feeding a retry storm.
			select {
			case <-time.After(rt.backoff()):
			case <-ctx.Done():
				expired()
				return
			}
			if !rt.budget.withdraw() {
				rt.counters.retryStarved.Add(1)
				rt.emit(obs.RouteEvent{Phase: "skipped", Key: key, Attempt: attempts, Reason: "retry-budget"})
				break
			}
		}
		var b *backend
		var probe uint64
		for b == nil && next < len(cands) {
			c := cands[next]
			next++
			if admit, token := c.br.allow(time.Now(), rt.cfg.BreakerCooldown); admit {
				b, probe = c, token
				continue
			}
			// A "skipped" phase, not "failover": no attempt was abandoned
			// here, so the failovers counter stays untouched and traces
			// reconcile with /metrics.
			rt.emit(obs.RouteEvent{Phase: "skipped", Backend: c.addr, Key: key, Attempt: attempts, Reason: "breaker-open"})
		}
		if b == nil {
			break
		}
		// When the request returns, give back a half-open probe slot whose
		// attempt ended without an outcome (request deadline, client
		// disconnect, drain refusal). abandonProbe ignores a slot
		// onSuccess or onFailure already released, and without it an
		// abandoned probe would refuse its backend forever: a grey-failed
		// backend passes its health probes, so no readmission ever comes
		// along to reset the circuit.
		defer b.br.abandonProbe(probe)
		attempts++
		if retry5xx != nil {
			// The 5xx answer's one retry exists now. A starved or exhausted
			// retry leaves the 5xx as the final answer and must not
			// inflate the retry counters.
			retry5xx.retried5xx.Add(1)
			rt.counters.retried5xx.Add(1)
			rt.counters.failovers.Add(1)
			rt.emit(failover5xx)
			retry5xx = nil
		}

		start := time.Now()
		p, err := rt.forward(ctx, b, body, deadline)
		if err != nil && ctx.Err() != nil {
			// The request ended under the attempt — its deadline passed or
			// its client left. That is no verdict on the backend.
			expired()
			return
		}
		v := rt.judge(b, p, err)
		dur := time.Since(start)
		if r.Context().Err() != nil {
			// Nobody is left to answer, but the attempt's evidence still
			// counted — clients give up exactly when the fleet is sick —
			// so only the client-facing write is skipped.
			rt.emitOpened(b, v)
			return
		}
		if v.detail != "" {
			lastErr = fmt.Sprintf("%s: %s", b.addr, v.detail)
		}
		ev := obs.RouteEvent{
			Phase: "failover", Backend: b.addr, Key: key, Attempt: attempts,
			Status: statusOf(p), Reason: v.reason, Duration: dur,
		}
		switch v.reason {
		case "":
			deliver(b, p, dur)
			return
		case "5xx":
			// An idempotent, cache-keyed job answered 5xx (e.g. a shard
			// panic mid-rebuild) deserves exactly one failover; a second
			// 5xx, or one from the last candidate, is replayed honestly.
			rt.emitOpened(b, v)
			if last5xx != nil || next >= len(cands) {
				deliver(b, p, dur)
				return
			}
			last5xx, retry5xx, failover5xx = p, b, ev
		default:
			if v.reason == "drain-503" {
				// Keep the honest 503 in hand in case the whole fleet is
				// draining.
				lastRefusal = p
			}
			rt.counters.failovers.Add(1)
			rt.emit(ev)
			rt.emitOpened(b, v)
		}
	}

	if attempts == 0 && len(cands) > 0 {
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
	// Every candidate spent without a deliverable answer.
	rt.counters.exhausted.Add(1)
	if attempts > 0 {
		rt.observeAttempts(attempts)
	}
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
	// "timeout", "truncated", "corrupt", "drain-503" or "5xx". It is empty
	// for an answer the client should see (2xx, 429, other 4xx).
	reason string
	// detail describes a failure for the exhausted-fleet error body.
	detail string
	// opened reports that this outcome opened the backend's circuit.
	opened bool
}

// judge settles one attempt's outcome against its backend b: the
// per-outcome counter, the circuit breaker and the failover reason. An
// outcome counts the same whether or not the client is still there to
// answer — in-band failure evidence is most valuable exactly when
// clients are timing out against a sick fleet. The caller emits the
// breaker-open transition (emitOpened), after its own failover event.
func (rt *Router) judge(b *backend, p *proxied, err error) verdict {
	var v verdict
	switch {
	case err != nil:
		v.detail = err.Error()
		switch {
		case errors.Is(err, errOversized):
			v.reason = "truncated" // b.truncated already counted in forward
		case errors.Is(err, context.DeadlineExceeded):
			v.reason = "timeout"
			b.timeouts.Add(1)
		default:
			v.reason = "connect"
			b.errors.Add(1)
		}
	case p.status == http.StatusServiceUnavailable:
		// Drain refusal: the backend is shutting down but its probe may
		// not have failed yet. Draining is cooperative, not grey, so the
		// circuit stays untouched.
		b.drain503.Add(1)
		return verdict{reason: "drain-503"}
	case p.status >= 500:
		v.reason, v.detail = "5xx", fmt.Sprintf("HTTP %d", p.status)
	case p.status == http.StatusOK && !json.Valid(p.body):
		// A 200 whose body is not the JSON answer it claims to be must
		// never reach the client. The check is scoped to 200 — the only
		// success /minimize produces — so a bodyless 204 or a future
		// non-JSON success is not misread as grey failure.
		v.reason, v.detail = "corrupt", "corrupt response body"
		b.corrupt.Add(1)
	default:
		switch {
		case p.status == http.StatusTooManyRequests:
			// Backpressure is an answer, not a failure: it passes through
			// with Retry-After intact so the client's closed loop does its
			// job.
			b.rejected429.Add(1)
		case p.status >= 200 && p.status < 300:
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

// forward sends one POST /minimize to b under the attempt timeout and
// buffers the whole response. The attempt context rides along, so an
// abandoned attempt (timeout, expired deadline, vanished client) cancels
// the backend work through bddmind's own Budget.Ctx plumbing. The
// remaining request budget is propagated in serve.DeadlineHeader so the
// backend's admission maps it onto bdd.Budget.Deadline — a failover retry
// arrives with a smaller budget than the original attempt did, never a
// larger one. A response bigger than maxProxiedBody fails the attempt
// with errOversized rather than truncating silently.
func (rt *Router) forward(ctx context.Context, b *backend, body []byte, deadline time.Time) (*proxied, error) {
	if rt.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
		defer cancel()
	}
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
	data, err := io.ReadAll(io.LimitReader(res.Body, maxProxiedBody+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxProxiedBody {
		b.truncated.Add(1)
		return nil, fmt.Errorf("%s: %w (over %d bytes)", b.addr, errOversized, maxProxiedBody)
	}
	return &proxied{
		backend:    b.addr,
		status:     res.StatusCode,
		body:       data,
		conType:    res.Header.Get("Content-Type"),
		retryAfter: res.Header.Get("Retry-After"),
	}, nil
}
