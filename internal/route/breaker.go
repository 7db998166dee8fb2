package route

import (
	"sync"
	"time"
)

// Per-backend circuit breaking and the global retry budget — the two
// mechanisms that keep a sick fleet from amplifying its own sickness.
//
// The health prober (health.go) catches *clean* failures: a dead process
// refuses its probe connection and is ejected. A grey failure is the
// opposite case — the backend answers /healthz promptly but stalls,
// truncates or 500s the real work — and only in-band evidence can catch
// it. The breaker accumulates that evidence per backend: consecutive
// forward failures (attempt timeouts, transport errors, truncated or
// corrupt responses, 5xx statuses) open the circuit, an open circuit is
// skipped during candidate selection the way an ejected backend is, and
// after a cooldown exactly one probe request (half-open) decides between
// closing the circuit and re-opening it. A probe whose attempt ends
// without an outcome (request deadline, client disconnect, drain
// refusal) gives its slot back — see abandonProbe — so an answerless
// probe re-arms the next request's probe instead of wedging the circuit
// half-open forever. The breaker composes with
// probe-based ejection rather than replacing it: either signal alone
// removes the backend from first-choice placement, and a probe-based
// re-admission resets the breaker so a restarted backend starts clean.
//
// The retry budget is the second guard: failover multiplies request
// volume exactly when the fleet is least able to absorb it. The token
// bucket caps that amplification globally — every *extra* attempt (a
// failover retry; never the first attempt of a request) spends one
// token, and tokens are earned as a fraction of incoming requests. When the bucket runs dry the router degrades to fast, honest
// errors instead of a retry storm.

// Breaker states.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateName renders a state for /metrics and traces.
func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one backend's circuit. All transitions happen under mu; the
// counters are read by /metrics through snapshot.
type breaker struct {
	mu          sync.Mutex
	state       int32
	consecFails int
	openedAt    time.Time
	probing     bool   // half-open: the single probe slot is taken
	probeSeq    uint64 // increments per probe grant; names the slot's holder

	opens  uint64
	closes uint64
}

// allow reports whether an attempt may be sent through this circuit now.
// A closed circuit always admits (probe token 0). An open circuit admits
// nothing until cooldown has elapsed, then transitions to half-open and
// admits exactly one probe attempt; further calls are refused until that
// probe's outcome arrives. A probe admission returns a non-zero token
// naming the slot grant, and the caller must guarantee the slot is
// released: onSuccess and onFailure release it as a side effect of
// recording the probe's outcome, and abandonProbe(token) releases it when
// the attempt is discarded without one (request deadline, client
// disconnect, drain refusal). An unreleased slot would refuse the
// backend forever.
func (br *breaker) allow(now time.Time, cooldown time.Duration) (admit bool, probe uint64) {
	br.mu.Lock()
	defer br.mu.Unlock()
	switch br.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if now.Sub(br.openedAt) < cooldown {
			return false, 0
		}
		br.state = breakerHalfOpen
	default: // half-open
		if br.probing {
			return false, 0
		}
	}
	br.probing = true
	br.probeSeq++
	return true, br.probeSeq
}

// abandonProbe releases the half-open probe slot granted under token when
// the attempt holding it was discarded before reporting an outcome: the
// circuit stays half-open and the next request is admitted to probe in
// its place. A stale token — a slot already released by onSuccess or
// onFailure, or since re-granted to a later attempt — is ignored, so
// callers may release unconditionally at end of request.
func (br *breaker) abandonProbe(token uint64) {
	if token == 0 {
		return
	}
	br.mu.Lock()
	defer br.mu.Unlock()
	if br.state == breakerHalfOpen && br.probing && br.probeSeq == token {
		br.probing = false
	}
}

// onSuccess records an in-band success: the circuit closes and the
// failure streak resets.
func (br *breaker) onSuccess() {
	br.mu.Lock()
	defer br.mu.Unlock()
	if br.state != breakerClosed {
		br.closes++
	}
	br.state = breakerClosed
	br.consecFails = 0
	br.probing = false
}

// onFailure records an in-band failure. It returns true when this failure
// opened the circuit (closed→open on reaching threshold, or a failed
// half-open probe), so the caller can emit the transition exactly once.
func (br *breaker) onFailure(now time.Time, threshold int) bool {
	br.mu.Lock()
	defer br.mu.Unlock()
	switch br.state {
	case breakerHalfOpen:
		br.state = breakerOpen
		br.openedAt = now
		br.probing = false
		br.opens++
		return true
	case breakerClosed:
		br.consecFails++
		if br.consecFails >= threshold {
			br.state = breakerOpen
			br.openedAt = now
			br.opens++
			return true
		}
	}
	return false
}

// reset returns the circuit to closed without counting a close transition
// caused by in-band evidence — used when the health prober re-admits a
// backend, which means a fresh (probably restarted) process.
func (br *breaker) reset() {
	br.mu.Lock()
	defer br.mu.Unlock()
	if br.state != breakerClosed {
		br.closes++
	}
	br.state = breakerClosed
	br.consecFails = 0
	br.probing = false
}

// snapshot returns (state name, opens, closes) for /metrics.
func (br *breaker) snapshot() (string, uint64, uint64) {
	br.mu.Lock()
	defer br.mu.Unlock()
	return breakerStateName(br.state), br.opens, br.closes
}

// retryBudget is the global token bucket bounding retry amplification.
// The bucket starts full (a cold router may retry freely); each incoming
// request deposits ratio tokens, each extra attempt withdraws one.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

func newRetryBudget(max int, ratio float64) *retryBudget {
	return &retryBudget{tokens: float64(max), max: float64(max), ratio: ratio}
}

// deposit credits the bucket for one incoming request.
func (rb *retryBudget) deposit() {
	rb.mu.Lock()
	rb.tokens += rb.ratio
	if rb.tokens > rb.max {
		rb.tokens = rb.max
	}
	rb.mu.Unlock()
}

// withdraw takes one token for an extra attempt, reporting whether the
// budget allowed it.
func (rb *retryBudget) withdraw() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}
