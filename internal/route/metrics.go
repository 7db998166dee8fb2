package route

import (
	"net/http"
	"time"
)

// Wire schema of the router's own endpoints. The document shape is
// distinct from bddmind's MetricsSnapshot: per-backend rows, routing
// counters, the retry histogram and the ring composition.

// BackendSnapshot is one fleet member's row in GET /metrics.
type BackendSnapshot struct {
	Backend string `json:"backend"`
	// Healthy is the prober's current verdict; Ejections and Readmissions
	// count the transitions, ProbeFailures every failed probe.
	Healthy      bool   `json:"healthy"`
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`
	ProbeFails   uint64 `json:"probe_failures"`
	// Requests counts forward attempts sent to the backend; OK the 2xx
	// answers, Rejected429 passed-through backpressure, Drain503 refusals
	// that triggered failover, Errors transport failures.
	Requests    uint64 `json:"requests"`
	OK          uint64 `json:"ok"`
	Rejected429 uint64 `json:"rejected_429"`
	Drain503    uint64 `json:"drain_503"`
	Errors      uint64 `json:"errors"`
	// Grey-failure evidence: Timeouts counts attempts abandoned at the
	// attempt timeout, Truncated responses over the proxied-body limit,
	// Corrupt 200 answers with invalid JSON bodies, Retried5xx 5xx answers
	// that were given one failover.
	Timeouts   uint64 `json:"timeouts"`
	Truncated  uint64 `json:"truncated"`
	Corrupt    uint64 `json:"corrupt"`
	Retried5xx uint64 `json:"retried_5xx"`
	// BreakerState is the circuit's current state (closed / open /
	// half-open); BreakerOpens and BreakerCloses count the transitions.
	BreakerState  string `json:"breaker_state"`
	BreakerOpens  uint64 `json:"breaker_opens"`
	BreakerCloses uint64 `json:"breaker_closes"`
}

// RingSlice describes one backend's footprint on the hash ring.
type RingSlice struct {
	Backend string `json:"backend"`
	VNodes  int    `json:"vnodes"`
	// Share is the fraction of the key space the backend owns, estimated
	// from arc lengths.
	Share float64 `json:"share"`
}

// RouterCounters aggregates the routing outcomes.
type RouterCounters struct {
	// Forwarded counts requests answered with a backend response (any
	// status the client saw, including passed-through 429s).
	Forwarded uint64 `json:"forwarded"`
	// Failovers counts attempts abandoned for the next ring node: a
	// connection error, timeout, truncated or corrupt body, 503 drain
	// refusal, or a 5xx whose one retry was admitted.
	Failovers uint64 `json:"failovers"`
	// Exhausted counts requests that ran out of candidates (502, or a
	// replayed 503 when the whole fleet was draining).
	Exhausted uint64 `json:"exhausted"`
	// BadRequest counts requests rejected at the router itself
	// (malformed JSON, unparsable instance, wrong method, oversized).
	BadRequest uint64 `json:"bad_request"`
	// DeadlineExceeded counts requests terminated with 504 at their
	// end-to-end deadline before any backend answered.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	// Retried5xx counts the one-shot failovers granted to backend 5xx
	// answers — only when the retry attempt was actually admitted.
	Retried5xx uint64 `json:"retried_5xx"`
	// BreakerFastFails counts requests refused immediately (503) because
	// every candidate's circuit was open; RetryBudgetExhausted counts
	// failover attempts denied by the retry budget.
	BreakerFastFails     uint64 `json:"breaker_fast_fails"`
	RetryBudgetExhausted uint64 `json:"retry_budget_exhausted"`
}

// RetryBucket is one cell of the retry histogram: requests resolved on
// exactly Attempts forwarding attempts (the last bucket aggregates
// everything at or beyond it).
type RetryBucket struct {
	Attempts int    `json:"attempts"`
	Count    uint64 `json:"count"`
}

// MetricsSnapshot is the body of the router's GET /metrics.
type MetricsSnapshot struct {
	UptimeNs int64             `json:"uptime_ns"`
	Healthy  int               `json:"healthy_backends"`
	Backends []BackendSnapshot `json:"backends"`
	Counters RouterCounters    `json:"counters"`
	Retries  []RetryBucket     `json:"retries,omitempty"`
	Ring     []RingSlice       `json:"ring"`
}

// HealthResponse is the body of the router's GET /healthz: "ok" (200)
// while at least one backend is admitted, "unavailable" (503) otherwise.
type HealthResponse struct {
	State    string `json:"state"`
	Backends int    `json:"backends"`
	Healthy  int    `json:"healthy"`
}

// Metrics assembles the snapshot (also used by tests directly).
func (rt *Router) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeNs: time.Since(rt.start).Nanoseconds(),
		Healthy:  rt.Healthy(),
		Counters: RouterCounters{
			Forwarded:            rt.counters.forwarded.Load(),
			Failovers:            rt.counters.failovers.Load(),
			Exhausted:            rt.counters.exhausted.Load(),
			BadRequest:           rt.counters.badRequest.Load(),
			DeadlineExceeded:     rt.counters.deadlineExceeded.Load(),
			Retried5xx:           rt.counters.retried5xx.Load(),
			BreakerFastFails:     rt.counters.breakerFastFail.Load(),
			RetryBudgetExhausted: rt.counters.retryStarved.Load(),
		},
	}
	for _, b := range rt.backends {
		brState, brOpens, brCloses := b.br.snapshot()
		snap.Backends = append(snap.Backends, BackendSnapshot{
			Backend:       b.addr,
			Healthy:       !b.ejected.Load(),
			Ejections:     b.ejections.Load(),
			Readmissions:  b.readmissions.Load(),
			ProbeFails:    b.probeFails.Load(),
			Requests:      b.requests.Load(),
			OK:            b.ok.Load(),
			Rejected429:   b.rejected429.Load(),
			Drain503:      b.drain503.Load(),
			Errors:        b.errors.Load(),
			Timeouts:      b.timeouts.Load(),
			Truncated:     b.truncated.Load(),
			Corrupt:       b.corrupt.Load(),
			Retried5xx:    b.retried5xx.Load(),
			BreakerState:  brState,
			BreakerOpens:  brOpens,
			BreakerCloses: brCloses,
		})
	}
	for i := range rt.retryHist {
		if c := rt.retryHist[i].Load(); c > 0 {
			snap.Retries = append(snap.Retries, RetryBucket{Attempts: i + 1, Count: c})
		}
	}
	shares := rt.ring.Share()
	for i, addr := range rt.cfg.Backends {
		snap.Ring = append(snap.Ring, RingSlice{
			Backend: addr,
			VNodes:  VirtualNodes,
			Share:   shares[i],
		})
	}
	return snap
}

// handleMetrics serves the router's operational snapshot.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Metrics())
}

// handleHealthz reports the router's own liveness: it is useful exactly
// while it can still place work somewhere.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := rt.Healthy()
	body := HealthResponse{State: "ok", Backends: len(rt.backends), Healthy: healthy}
	status := http.StatusOK
	if healthy == 0 {
		body.State = "unavailable"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}
