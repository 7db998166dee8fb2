// Package route is the multi-node front of the minimization service: a
// stateless HTTP router (cmd/bddrouter) that places requests on a fleet
// of bddmind backends with a consistent-hash ring and keeps serving
// through backend failures.
//
// Placement is keyed on problem.KeyHash of problem.Key — the same
// canonical key bddmind's front-line result cache uses — so every
// spelling of an instance that the backend would answer from its cache
// lands on the backend that holds that cache entry, and the fleet behaves
// like one big cache even though backends share nothing. The key is
// computed from the request text: a BLIF request naming its node builds
// no netlist at the router. The ring (ring.go) spans all configured
// backends with virtual nodes; health is layered on top rather than
// baked in, so an ejection moves exactly the ejected backend's keys to
// their ring successors and a re-admission restores the original
// placement.
//
// Robustness is layered, clean failures first, grey failures second:
//
//   - active health: a prober per backend polls GET /healthz; two
//     consecutive failures (a draining backend answers 503 and fails the
//     probe by design) eject the backend from candidate selection, two
//     consecutive successes re-admit it;
//   - per-request failover: a connection error, an attempt timeout, a
//     truncated or corrupt response, or a 503 drain refusal makes the
//     router retry the next ring node after a jittered backoff, at most
//     once per backend; an idempotent 5xx answer is retried once. 429
//     backpressure is passed through untouched (Retry-After intact) —
//     the client, not the router, owns the retry loop for overload;
//   - grey-failure tolerance: AttemptTimeout abandons a stalled backend,
//     the request's end-to-end deadline (timeout_ms, propagated and
//     shrunk across attempts via the X-Bddmind-Deadline-Ms header) caps
//     total latency at the client's original budget, and per-backend
//     circuit breakers (breaker.go) driven by in-band outcomes skip a
//     sick backend the way probe-based ejection skips a dead one. A
//     global retry-budget token bucket bounds the extra attempts
//     failover may add, so a sick fleet degrades to fast errors instead
//     of a retry storm.
//
// A request has at most one attempt in flight: its attempts run one
// after another, so their times never overlap.
//
// The router never invents a success: a request either returns a backend
// response verbatim (plus an X-Bddmind-Backend header naming the server
// that produced it), an honest 502 after every candidate failed, a 503
// when every circuit is open, or a 504 when the deadline expired first.
// A truncated or corrupt backend body is never replayed to the client.
package route

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bddmin/internal/obs"
)

// Config parameterizes a Router. Backends is required; everything else
// has serviceable defaults.
type Config struct {
	// Backends are the bddmind base URLs fronted by the router, e.g.
	// "http://127.0.0.1:8081". The set is fixed for the router's lifetime.
	Backends []string
	// ProbeInterval is the /healthz polling period per backend (default
	// 1s).
	ProbeInterval time.Duration
	// RetryBackoff is the base pause between failover attempts; the
	// actual pause is jittered uniformly in [0.5, 1.5] of it (default
	// 25ms). Jitter prevents a crashed backend's in-flight requests from
	// stampeding its ring successor in lockstep.
	RetryBackoff time.Duration
	// AttemptTimeout bounds each individual forward attempt, so a backend
	// that accepts the connection and then stalls is abandoned (and failed
	// over) instead of hanging the request forever. 0 disables the bound —
	// the attempt then runs until the client or the request deadline gives
	// up. When the request carries an end-to-end deadline, each attempt is
	// additionally clamped to the remaining budget.
	AttemptTimeout time.Duration
	// BreakerThreshold opens a backend's circuit after that many
	// consecutive in-band failures — attempt timeouts, transport errors,
	// truncated or corrupt bodies, 5xx statuses (default 5). An open
	// circuit skips the backend during candidate selection until
	// BreakerCooldown has elapsed; then a single half-open probe request
	// decides between closing and re-opening it (default cooldown 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RetryBudgetMax and RetryBudgetRatio parameterize the global retry
	// budget: a token bucket holding at most RetryBudgetMax tokens
	// (default 32), credited RetryBudgetRatio tokens per incoming request
	// (default 0.1). Every failover attempt spends one token; an empty
	// bucket degrades the router to fast errors instead of a retry storm.
	RetryBudgetMax   int
	RetryBudgetRatio float64
	// HTTP performs the forwarded requests and the probes
	// (http.DefaultClient when nil). Give it a transport sized to the
	// expected concurrency.
	HTTP *http.Client
	// Trace, when non-nil, receives obs.RouteEvent transitions
	// (forwarded/failover/error and ejected/readmitted). Emissions are
	// serialized, so any single-goroutine Tracer works.
	Trace obs.Tracer
}

// withDefaults normalizes the zero values.
func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.RetryBudgetMax <= 0 {
		c.RetryBudgetMax = 32
	}
	if c.RetryBudgetRatio <= 0 {
		c.RetryBudgetRatio = 0.1
	}
	return c
}

// backend is one fleet member: its address, its health state, and its
// slice of the router's counters. The prober goroutine owns the
// consecutive-outcome counters; everything shared is atomic.
type backend struct {
	addr    string
	ejected atomic.Bool
	br      breaker // in-band circuit (breaker.go)

	requests     atomic.Uint64 // forward attempts sent to this backend
	ok           atomic.Uint64 // 2xx responses returned
	rejected429  atomic.Uint64 // 429 backpressure passed through
	drain503     atomic.Uint64 // 503 refusals that triggered failover
	errors       atomic.Uint64 // transport failures (connect/reset)
	timeouts     atomic.Uint64 // attempts abandoned at the attempt timeout
	truncated    atomic.Uint64 // responses over maxProxiedBody, failed over
	corrupt      atomic.Uint64 // 200 responses with an invalid JSON body
	retried5xx   atomic.Uint64 // 5xx answers retried on the next candidate
	probeFails   atomic.Uint64
	ejections    atomic.Uint64
	readmissions atomic.Uint64
}

// retryHistBuckets bounds the retry histogram: bucket i counts requests
// resolved on attempt i+1; the last bucket is a catch-all.
const retryHistBuckets = 8

// Router fronts a fixed fleet of bddmind backends. Create with New,
// launch the health probers with Start, expose Handler over HTTP, stop
// with Close.
type Router struct {
	cfg      Config
	ring     *Ring
	backends []*backend
	start    time.Time

	stop chan struct{}
	wg   sync.WaitGroup

	counters struct {
		forwarded        atomic.Uint64 // requests answered with a backend response
		failovers        atomic.Uint64 // attempts that moved on to the next ring node
		exhausted        atomic.Uint64 // requests that ran out of candidates (502)
		badRequest       atomic.Uint64 // rejected at the router (400/405/413)
		deadlineExceeded atomic.Uint64 // requests terminated at the end-to-end deadline (504)
		retried5xx       atomic.Uint64 // idempotent 5xx answers retried once
		breakerFastFail  atomic.Uint64 // requests refused because every circuit was open
		retryStarved     atomic.Uint64 // extra attempts denied by the retry budget
	}
	retryHist [retryHistBuckets]atomic.Uint64
	budget    *retryBudget

	// obsMu serializes trace emissions across the HTTP goroutines and the
	// probers; jitterMu guards the backoff RNG.
	obsMu    sync.Mutex
	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// New builds a Router over cfg.Backends. Call Start before serving.
func New(cfg Config) *Router {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.Backends, VirtualNodes),
		start:  time.Now(),
		stop:   make(chan struct{}),
		jitter: rand.New(rand.NewSource(time.Now().UnixNano())),
		budget: newRetryBudget(cfg.RetryBudgetMax, cfg.RetryBudgetRatio),
	}
	for _, addr := range cfg.Backends {
		rt.backends = append(rt.backends, &backend{addr: addr})
	}
	return rt
}

// Start launches one health prober per backend.
func (rt *Router) Start() {
	for _, b := range rt.backends {
		rt.wg.Add(1)
		go rt.probeLoop(b)
	}
}

// Close stops the probers and waits for them. In-flight forwarded
// requests are unaffected (their contexts belong to the clients).
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// httpClient resolves the configured client.
func (rt *Router) httpClient() *http.Client {
	if rt.cfg.HTTP != nil {
		return rt.cfg.HTTP
	}
	return http.DefaultClient
}

// emit forwards a route event to the configured trace sink.
func (rt *Router) emit(ev obs.RouteEvent) {
	if rt.cfg.Trace == nil {
		return
	}
	rt.obsMu.Lock()
	rt.cfg.Trace.Emit(ev)
	rt.obsMu.Unlock()
}

// candidates returns the backends to try for a key: the healthy ones in
// ring-successor order first (the owner leads), then the ejected ones in
// the same order as a last resort — a request is only refused outright
// when every single backend has failed it.
func (rt *Router) candidates(key uint64) []*backend {
	order := rt.ring.Order(key)
	healthy := make([]*backend, 0, len(order))
	var down []*backend
	for _, i := range order {
		b := rt.backends[i]
		if b.ejected.Load() {
			down = append(down, b)
		} else {
			healthy = append(healthy, b)
		}
	}
	return append(healthy, down...)
}

// backoff returns the jittered pause before the next failover attempt.
func (rt *Router) backoff() time.Duration {
	base := rt.cfg.RetryBackoff
	rt.jitterMu.Lock()
	f := 0.5 + rt.jitter.Float64()
	rt.jitterMu.Unlock()
	return time.Duration(float64(base) * f)
}

// observeAttempts records how many forwarding attempts (n ≥ 1) a
// resolved request consumed.
func (rt *Router) observeAttempts(n int) {
	if n > retryHistBuckets {
		n = retryHistBuckets
	}
	rt.retryHist[n-1].Add(1)
}
