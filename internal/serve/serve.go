// Package serve is the minimization service behind cmd/bddmind: an
// HTTP/JSON front end that accepts jobs in the framework's three input
// formats (leaf-notation spec, PLA, BLIF+node) and runs them on a sharded
// worker pool.
//
// The concurrency architecture follows the kernel's ownership rule:
// bdd.Manager is not goroutine-safe, so each of the N workers owns a
// private manager for its whole lifetime, growing it (AddVar) and
// garbage-collecting it between jobs but never sharing it. Jobs flow
// through one bounded queue; admission control is explicit backpressure —
// a full queue rejects with HTTP 429 and a Retry-After hint instead of
// queueing unboundedly, and a draining server rejects with 503 while
// in-flight work completes.
//
// Resource governance maps per-request limits onto bdd.Budget: the request
// deadline becomes Budget.Deadline, the per-request node cap (clamped by
// the server-wide cap) becomes Budget.MaxNodesMade, the per-shard arena
// bound becomes Budget.MaxLiveNodes, and the HTTP request context becomes
// Budget.Ctx so a disconnected client cancels its own work. A tripped
// budget does not fail the request: the anytime drivers degrade to the
// best valid intermediate cover and the response is annotated with the
// abort reason.
//
// Every request is traced through a private obs.Buffer; the events feed
// the server-wide per-heuristic metrics (GET /metrics), the optional
// server trace sink, and — when the request asks — the response itself.
package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
	"bddmin/internal/logic"
	"bddmin/internal/obs"
	"bddmin/internal/problem"
)

// Config parameterizes a Server. The zero value is usable: Defaults fills
// in two shards, a 64-deep queue and no resource limits.
type Config struct {
	// Shards is the number of workers, each owning a private bdd.Manager.
	Shards int
	// QueueDepth bounds the admission queue; a full queue is backpressure
	// (HTTP 429), not an error.
	QueueDepth int
	// MaxVars rejects instances over this many variables at admission
	// (413); 0 means 64. This bounds per-shard memory indirectly: shard
	// managers grow to the widest instance they have served.
	MaxVars int
	// MaxNodesPerRequest caps every request's Budget.MaxNodesMade; a
	// request asking for more (or for nothing) is clamped down to it.
	// 0 leaves requests uncapped unless they ask.
	MaxNodesPerRequest uint64
	// MaxLiveNodes is the per-shard arena bound (Budget.MaxLiveNodes).
	MaxLiveNodes int
	// DefaultTimeout applies to requests that set no timeout_ms;
	// MaxTimeout clamps requests that do. Zero means no limit.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the backoff hint attached to 429 responses (default
	// 500ms).
	RetryAfter time.Duration
	// Trace, when non-nil, receives the server's request-lifecycle
	// ServeEvents and every request's replayed pipeline events. The
	// server serializes emissions, so any single-goroutine Tracer works.
	Trace obs.Tracer
	// CacheEntries and CacheBytes bound the result cache (see cache.go):
	// entry count and approximate stored bytes. Both zero disables caching
	// — the zero-value default, so embedded servers opt in explicitly
	// (cmd/bddmind enables it through its flag defaults). Setting either
	// enables the cache; the unset bound defaults to 4096 entries / 64 MiB.
	CacheEntries int
	CacheBytes   int64

	// hookStart, when non-nil, runs on the worker goroutine at the top of
	// each executed job, inside the job's panic recovery — a test-only
	// synchronization and fault-injection point for the overload, drain
	// and cache tests.
	hookStart func(shard int, id uint64)
}

// withDefaults normalizes the zero values.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxVars <= 0 {
		c.MaxVars = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 500 * time.Millisecond
	}
	if c.CacheEntries > 0 || c.CacheBytes > 0 {
		if c.CacheEntries <= 0 {
			c.CacheEntries = 4096
		}
		if c.CacheBytes <= 0 {
			c.CacheBytes = 64 << 20
		}
	}
	return c
}

// task is one admitted job on its way through the queue.
type task struct {
	id       uint64
	prob     *problem.Problem
	heu      core.Minimizer
	trace    bool
	nodesCap uint64
	deadline time.Time
	ctx      context.Context
	enq      time.Time
	resp     chan *MinimizeResponse // buffered; worker never blocks

	// Network-job fields (POST /optimize-network); a non-nil netResp routes
	// the task through executeNetwork instead of execute, and prob/resp stay
	// nil. See network.go.
	net      *logic.Network
	netWidth int
	netReq   *NetworkRequest
	netResp  chan *NetworkResponse
}

// worker is one shard: a goroutine with a private manager.
type worker struct {
	id int
	m  *bdd.Manager

	// Stats are written by the worker and read by /metrics.
	jobs   atomic.Uint64
	busyNs atomic.Int64
	vars   atomic.Int64
	live   atomic.Int64
	made   atomic.Uint64
}

// Server is a sharded minimization service. Create with New, start the
// workers with Start, expose Handler over HTTP, stop with Drain.
type Server struct {
	cfg   Config
	queue chan *task

	// admit guards the send-versus-close race on queue: enqueue holds the
	// read side, Drain takes the write side to flip draining and close.
	admit    sync.RWMutex
	draining bool

	workers []*worker
	wg      sync.WaitGroup
	nextID  atomic.Uint64
	start   time.Time

	counters struct {
		accepted, finished, degraded, aborts atomic.Uint64
		rejected, drainRejects, invalid      atomic.Uint64
		canceled, failed                     atomic.Uint64
	}
	lat latencyHist

	// cache is the result cache (nil when disabled).
	cache *resultCache

	// obsMu serializes the shared per-heuristic metrics sink and the
	// optional server trace across shards and the HTTP goroutines.
	obsMu sync.Mutex
	heur  obs.Metrics
}

// New builds a Server; call Start before serving requests.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		queue: make(chan *task, cfg.QueueDepth),
		start: time.Now(),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	for i := 0; i < cfg.Shards; i++ {
		s.workers = append(s.workers, &worker{id: i, m: bdd.New(1)})
	}
	return s
}

// Start launches the worker goroutines.
func (s *Server) Start() {
	for _, w := range s.workers {
		s.wg.Add(1)
		go s.runWorker(w)
	}
}

// Drain stops admission (new requests get 503, /healthz degrades), lets
// the workers finish every queued and in-flight job, and returns when the
// pool is idle or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.admit.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.admit.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// enqueue attempts admission. It returns queueFull when backpressure
// applies and drainRefused while the server is shutting down.
type admitResult int

const (
	admitted admitResult = iota
	queueFull
	drainRefused
)

func (s *Server) enqueue(t *task) admitResult {
	s.admit.RLock()
	defer s.admit.RUnlock()
	if s.draining {
		return drainRefused
	}
	select {
	case s.queue <- t:
		return admitted
	default:
		return queueFull
	}
}

// emitServe forwards a lifecycle event to the configured trace sink.
func (s *Server) emitServe(ev obs.ServeEvent) {
	if s.cfg.Trace == nil {
		return
	}
	s.obsMu.Lock()
	s.cfg.Trace.Emit(ev)
	s.obsMu.Unlock()
}

// runWorker is the shard loop: it owns w.m exclusively until the queue
// closes.
func (s *Server) runWorker(w *worker) {
	defer s.wg.Done()
	for t := range s.queue {
		if t.netResp != nil {
			s.executeNetwork(w, t)
		} else {
			s.execute(w, t)
		}
	}
}

// execute runs one job on w's private manager and delivers the response.
// The response channel is buffered, so delivery never blocks even when the
// requesting client is gone.
func (s *Server) execute(w *worker, t *task) {
	// A client that disconnected while queued gets its work skipped; the
	// budget context would abort it immediately anyway.
	if t.ctx != nil && t.ctx.Err() != nil {
		s.counters.canceled.Add(1)
		t.resp <- nil
		return
	}
	start := time.Now()
	s.emitServe(obs.ServeEvent{
		Phase: "started", ID: t.id, Shard: w.id,
		Format: string(t.prob.Kind), Heuristic: t.heu.Name(), Queue: len(s.queue),
	})
	resp := s.runJob(w, t, start)
	elapsed := time.Since(start)
	w.jobs.Add(1)
	w.busyNs.Add(elapsed.Nanoseconds())
	// GC between jobs: nothing is protected, so everything the job built
	// is reclaimed and the arena stats reflect the steady state.
	w.m.GC()
	w.vars.Store(int64(w.m.NumVars()))
	w.live.Store(int64(w.m.NumNodes()))
	w.made.Store(w.m.NodesMade())
	if resp != nil {
		resp.Shard = w.id
		resp.QueueNs = start.Sub(t.enq).Nanoseconds()
		resp.RunNs = elapsed.Nanoseconds()
		total := time.Since(t.enq)
		s.lat.observe(total.Nanoseconds())
		s.counters.finished.Add(1)
		if resp.Degraded {
			s.counters.degraded.Add(1)
			s.emitServe(obs.ServeEvent{
				Phase: "degraded", ID: t.id, Shard: w.id, Reason: resp.AbortReason,
			})
		}
		s.emitServe(obs.ServeEvent{
			Phase: "finished", ID: t.id, Shard: w.id, Status: 200,
			Queue: len(s.queue), Duration: total,
		})
	} else {
		s.counters.failed.Add(1)
		s.emitServe(obs.ServeEvent{
			Phase: "finished", ID: t.id, Shard: w.id, Status: 500, Queue: len(s.queue),
		})
	}
	t.resp <- resp
}

// runJob builds the instance, minimizes it under the request budget, and
// serializes the result. A nil return is an internal failure (kernel
// panic, non-cover); the manager is rebuilt so the shard stays healthy.
func (s *Server) runJob(w *worker, t *task, start time.Time) (resp *MinimizeResponse) {
	defer func() {
		if r := recover(); r != nil {
			// A kernel invariant violation must not take the shard down,
			// and a possibly-corrupt arena must not serve the next job.
			w.m = bdd.New(1)
			resp = nil
		}
	}()
	if s.cfg.hookStart != nil {
		// Inside the recovery on purpose: an injected panic here exercises
		// the shard-failure path of the cache tests.
		s.cfg.hookStart(w.id, t.id)
	}
	for w.m.NumVars() < t.prob.Vars {
		w.m.AddVar()
	}
	m := w.m
	in, err := t.prob.Build(m)
	if err != nil {
		return nil
	}
	resp = &MinimizeResponse{
		ID:        t.id,
		Format:    string(t.prob.Kind),
		Heuristic: t.heu.Name(),
		Vars:      t.prob.Vars,
		Node:      t.prob.Node,
		InputSize: m.Size(in.F),
	}
	var g bdd.Ref
	if tg, ok := in.Trivial(m); ok {
		g, resp.Trivial = tg, true
	} else {
		buf := &obs.Buffer{}
		// core.ByName built t.heu for this request alone, so Instrument may
		// set its Trace field without touching state shared across shards.
		h := core.Instrument(t.heu, buf)
		b := s.budgetFor(t)
		var ab core.AbortInfo
		g, ab = core.MinimizeAnytime(h, m, in.F, in.C, b)
		if ab.Aborted {
			resp.Degraded = true
			resp.AbortReason = ab.Reason
			resp.AbortPhase = ab.Phase
			s.counters.aborts.Add(1)
		}
		s.recordTrace(t, buf, resp)
	}
	if !in.Cover(m, g) {
		return nil
	}
	resp.CoverSize = m.Size(g)
	var cover strings.Builder
	if err := m.WriteFunctions(&cover, map[string]bdd.Ref{"g": g}); err != nil {
		return nil
	}
	resp.Cover = cover.String()
	resp.CoverVars = m.NumVars()
	if t.prob.Vars <= SpecEchoVars {
		resp.Spec = core.FormatSpec(m, core.ISF{F: g, C: bdd.One}, t.prob.Vars)
	}
	return resp
}

// budgetFor maps the request's admission-controlled limits onto a kernel
// budget; nil when nothing is bounded (the allocation-free fast path).
func (s *Server) budgetFor(t *task) *bdd.Budget {
	b := &bdd.Budget{
		MaxNodesMade: t.nodesCap,
		MaxLiveNodes: s.cfg.MaxLiveNodes,
		Deadline:     t.deadline,
		Ctx:          t.ctx,
	}
	if b.MaxNodesMade == 0 && b.MaxLiveNodes == 0 && b.Deadline.IsZero() && b.Ctx == nil {
		return nil
	}
	return b
}

// recordTrace folds the request's buffered pipeline events into the shared
// per-heuristic metrics and the server trace, and renders them into the
// response when the client asked for its trace.
func (s *Server) recordTrace(t *task, buf *obs.Buffer, resp *MinimizeResponse) {
	s.obsMu.Lock()
	buf.ReplayTo(&s.heur)
	if s.cfg.Trace != nil {
		buf.ReplayTo(s.cfg.Trace)
	}
	s.obsMu.Unlock()
	if t.trace {
		resp.Trace = eventsJSON(buf.Events)
	}
}
