// Package obs is the observability layer of the minimization pipeline:
// structured tracing and metrics for the scheduler, the heuristics, the
// level matcher and the experiment harness, built on the standard library
// only.
//
// The design center is the paper's own evaluation methodology: Table 2 and
// Figure 3 are built from per-call evidence of *which* transformation
// (constrain, restrict, the osm/tsm sibling matchers, opt_lv) earned each
// node reduction. A Tracer receives that evidence as typed events —
// schedule windows opening and closing, heuristics applied with input and
// output node counts, level-match graphs with their pair/edge/clique
// counts, cache and GC snapshots — and concrete sinks turn the stream into
// a structured JSONL trace (JSONL), an aggregated per-heuristic metrics
// table (Metrics), or live progress lines (Progress).
//
// Tracing is strictly opt-in: every instrumented code path guards on a nil
// Tracer, so the default path performs no event construction, no timing
// syscalls and no allocations. Events are emitted by value; sinks must not
// retain the slices inside an event beyond the Emit call unless they copy
// them (Buffer copies).
package obs

import (
	"runtime"
	"sync"
	"time"
)

// Event is one observation from the minimization pipeline. The concrete
// types below are the full set; Kind returns the stable identifier used as
// the "ev" discriminator in JSONL traces. Their JSON tags are the wire
// schema (docs/ARCHITECTURE.md tabulates it): a Duration is "ns" and is
// omitted unless a sink asks for timings.
type Event interface {
	Kind() string
}

// Tracer receives pipeline events. Implementations are single-goroutine,
// matching the bdd.Manager concurrency model: one tracer per manager, with
// cross-goroutine merging done by buffering (see Buffer and the parallel
// harness).
type Tracer interface {
	Emit(Event)
}

// WindowEvent reports the scheduler opening or closing one window of
// levels (Section 3.4). FSize and CSize are the node counts of the current
// i-cover [f, c] at that boundary; for a close event the difference
// against the matching open event is the window's total yield.
type WindowEvent struct {
	Phase string `json:"phase"` // "open" or "close"
	// Lo and Hi bound the window's level range, inclusive.
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	FSize int `json:"f_size"` // nodes in the function part
	CSize int `json:"c_size"` // nodes in the care part
}

// Kind implements Event.
func (WindowEvent) Kind() string { return "window" }

// HeuristicEvent reports one application of a minimization transformation:
// a full heuristic run (a core.Minimizer, possibly wrapped by core.Traced
// or timed by the harness) or one scheduler step (sibling matching inside
// a window). Accepted records whether the result would be kept under the
// paper's never-increase safeguard (OutSize ≤ InSize); NodesSaved in the
// metrics table is InSize − OutSize summed where positive.
type HeuristicEvent struct {
	Name      string        `json:"name"`                // heuristic or step name, e.g. "osm_bt", "sib_tsm"
	Criterion string        `json:"criterion,omitempty"` // matching criterion: "osdm", "osm", "tsm" ("" if mixed)
	Benchmark string        `json:"benchmark,omitempty"` // harness benchmark name ("" outside the harness)
	Call      int           `json:"call,omitempty"`      // harness call sequence number (0 outside the harness)
	InSize    int           `json:"in_size"`             // |f| before
	OutSize   int           `json:"out_size"`            // |g| after
	Matches   int           `json:"matches"`             // sibling/level matches applied (0 when unknown)
	Accepted  bool          `json:"accepted"`            // OutSize ≤ InSize
	Duration  time.Duration `json:"ns,omitempty"`
}

// Kind implements Event.
func (HeuristicEvent) Kind() string { return "heuristic" }

// LevelMatchEvent reports one round of level matching (Section 3.3): the
// directed (OSM) or undirected (TSM) matching graph built over the
// functions cut at Level, and how much of it was used. Cliques is zero for
// OSM, where the exact DMG solution replaces clique covering. opt_lv runs
// no round, and emits no event, at a level that holds no node of its f or
// c.
type LevelMatchEvent struct {
	Level     int           `json:"level"`
	Criterion string        `json:"criterion"`         // "osm" or "tsm"
	Pairs     int           `json:"pairs"`             // vertices: collected [f_j, c_j] pairs
	Edges     int           `json:"edges"`             // matching-graph edges
	Cliques   int           `json:"cliques"`           // cliques in the TSM cover (0 for OSM)
	Replaced  int           `json:"replaced"`          // pairs replaced by an i-cover
	Pruned    int           `json:"pruned"`            // candidate pairs rejected by the signature filter
	Aborted   bool          `json:"aborted,omitempty"` // round cut short by a budget abort; result discarded
	Duration  time.Duration `json:"ns,omitempty"`
}

// Kind implements Event.
func (LevelMatchEvent) Kind() string { return "levelmatch" }

// CacheOpStats mirrors bdd.CacheOpStats: one operation's computed-cache
// counters. Redeclared here so the event schema is self-contained.
type CacheOpStats struct {
	Op        string `json:"op"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// CacheEvent snapshots the computed-cache counters since the last flush,
// typically per heuristic run (the harness flushes between heuristics, so
// the snapshot isolates one heuristic's cache behavior). A nil Ops encodes
// as an empty "ops" array.
type CacheEvent struct {
	Benchmark string         `json:"benchmark,omitempty"`
	Call      int            `json:"call,omitempty"`
	Scope     string         `json:"scope,omitempty"` // what the snapshot covers, e.g. a heuristic name
	Ops       []CacheOpStats `json:"ops"`
}

// Kind implements Event.
func (CacheEvent) Kind() string { return "cache" }

// GCEvent snapshots the manager's node accounting: live nodes, cumulative
// GC runs and cumulative nodes made. The harness emits one per benchmark.
type GCEvent struct {
	Benchmark string `json:"benchmark,omitempty"`
	Live      int    `json:"live"`
	Runs      int    `json:"runs"`
	NodesMade uint64 `json:"nodes_made"`
}

// Kind implements Event.
func (GCEvent) Kind() string { return "gc" }

// BenchmarkEvent brackets one harness benchmark run ("start"/"end").
type BenchmarkEvent struct {
	Name  string `json:"name"`
	Phase string `json:"phase"` // "start" or "end"
}

// Kind implements Event.
func (BenchmarkEvent) Kind() string { return "benchmark" }

// CallEvent reports one intercepted minimization instance in the harness,
// before its heuristic events. COnsetPct is the paper's c_onset_size.
type CallEvent struct {
	Benchmark string  `json:"benchmark,omitempty"`
	Call      int     `json:"call"`
	COnsetPct float64 `json:"c_onset_pct"`
	FSize     int     `json:"f_size"`
}

// Kind implements Event.
func (CallEvent) Kind() string { return "call" }

// AbortEvent reports a budget abort inside a minimization or traversal:
// the resource-governance layer (bdd.Budget) stopped a kernel recursion and
// the driver degraded to its best intermediate result. BestSize is the node
// count of the cover actually returned (never larger than the input, by the
// Proposition 6 comparison safeguard).
type AbortEvent struct {
	Benchmark string `json:"benchmark,omitempty"` // harness benchmark name ("" outside the harness)
	Name      string `json:"name,omitempty"`      // heuristic or pipeline stage that aborted
	Reason    string `json:"reason"`              // bdd.AbortReason: live-nodes, nodes-made, deadline, context, fault
	Phase     string `json:"phase,omitempty"`     // where in the driver the abort hit, e.g. "level 12", "window sib_osm"
	BestSize  int    `json:"best_size"`           // node count of the degraded result returned
}

// Kind implements Event.
func (AbortEvent) Kind() string { return "abort" }

// ServeEvent reports one lifecycle transition of a minimization request in
// the bddmind server: admission ("accepted" into the queue or "rejected"
// with an HTTP status), execution on a shard ("started", then "finished",
// with "degraded" in between when the request's budget tripped and the
// anytime path returned a clamped cover), or "cache_hit" when admission
// answers from the result cache without a fresh minimization (Shard -1).
// Queue is the bounded-queue depth observed at the transition — the
// server's backpressure signal.
type ServeEvent struct {
	Phase     string        `json:"phase"`            // "accepted", "started", "degraded", "finished", "rejected", "cache_hit"
	ID        uint64        `json:"id"`               // server-assigned request id
	Shard     int           `json:"shard"`            // worker index (execution phases; -1 before placement)
	Format    string        `json:"format,omitempty"` // input format: "spec", "pla" or "blif"
	Heuristic string        `json:"heuristic,omitempty"`
	Queue     int           `json:"queue,omitempty"`  // queue depth at the transition
	Status    int           `json:"status,omitempty"` // HTTP status (finished/rejected phases)
	Reason    string        `json:"reason,omitempty"` // rejection cause or budget abort reason
	Duration  time.Duration `json:"ns,omitempty"`
}

// Kind implements Event.
func (ServeEvent) Kind() string { return "serve" }

// RouteEvent reports one transition in the bddrouter, the stateless
// consistent-hash front of a multi-node bddmind fleet: a request placed on
// its ring-home backend and "forwarded" (Attempt 1), a "failover" when a
// backend refused with 503, was unreachable, stalled past the attempt
// timeout, answered a 5xx, or returned a truncated or corrupt body and the
// next ring node was tried (Attempt counts from 1 per request; a request
// has at most one attempt in flight), a "skipped" when a candidate was
// passed over without an attempt (its circuit open, or an extra attempt
// denied by the retry budget — no failover is counted), the grey-failure
// machinery's "breaker-open" and "deadline-exceeded" transitions, a
// terminal "error" when every candidate was exhausted, and the health
// prober's "ejected"/"readmitted" membership transitions. Key is the
// placement hash (problem.KeyHash) so a trace can be joined against ring
// positions; it is 0 for health and breaker events, which concern a
// backend rather than a request.
type RouteEvent struct {
	// Phase is one of "forwarded", "failover", "skipped",
	// "breaker-open", "deadline-exceeded", "error", "ejected",
	// "readmitted".
	Phase   string `json:"phase"`
	Backend string `json:"backend,omitempty"` // backend base URL the transition concerns
	Key     uint64 `json:"key,omitempty"`     // consistent-hash placement key (0 for health events)
	Attempt int    `json:"attempt,omitempty"` // 1-based forwarding attempt within the request
	Status  int    `json:"status,omitempty"`  // backend HTTP status (forwarding phases, 0 on transport error)
	// Reason is the failover/ejection/breaker cause, e.g. "connect",
	// "timeout", "truncated", "corrupt", "5xx", "drain-503",
	// "retry-budget", "breaker-open", "probe".
	Reason   string        `json:"reason,omitempty"`
	Duration time.Duration `json:"ns,omitempty"`
}

// Kind implements Event.
func (RouteEvent) Kind() string { return "route" }

// NetworkEvent reports one transition of the whole-network don't-care
// optimizer (package network): a per-node minimize-substitute attempt
// ("node"), the end of one topological sweep ("sweep"), and the final
// equivalence check ("miter"). Node events carry the window shape and the
// local cover sizes; sweep events carry the network-level trajectory the
// convergence loop monitors; the miter event carries the verdict.
type NetworkEvent struct {
	Phase string `json:"phase"`           // "node", "sweep" or "miter"
	Node  string `json:"node,omitempty"`  // target node name (node phase)
	Sweep int    `json:"sweep,omitempty"` // 1-based sweep number (node and sweep phases)
	// WindowInputs is the number of free boundary variables of the node's
	// window; InSize and OutSize are the local cover's BDD sizes before and
	// after minimization (node phase).
	WindowInputs int `json:"window_inputs,omitempty"`
	InSize       int `json:"in_size,omitempty"`
	OutSize      int `json:"out_size,omitempty"`
	// Cost and Nodes are the network cost (Σ local BDD sizes) and internal
	// node count after the phase; Rewrites counts accepted substitutions in
	// the sweep (sweep phase).
	Cost     int `json:"cost,omitempty"`
	Nodes    int `json:"nodes,omitempty"`
	Rewrites int `json:"rewrites,omitempty"`
	// Accepted reports an applied substitution (node phase) or a passing
	// equivalence check (miter phase); Aborted marks a per-node budget trip.
	Accepted bool          `json:"accepted,omitempty"`
	Aborted  bool          `json:"aborted,omitempty"`
	Duration time.Duration `json:"ns,omitempty"`
}

// Kind implements Event.
func (NetworkEvent) Kind() string { return "network" }

// Multi fans events out to every non-nil tracer, in order. It returns nil
// when no tracer remains, preserving the "nil means disabled" convention
// at the call sites.
func Multi(tracers ...Tracer) Tracer {
	var live []Tracer
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiTracer(live)
}

type multiTracer []Tracer

func (mt multiTracer) Emit(ev Event) {
	for _, t := range mt {
		t.Emit(ev)
	}
}

// Buffer records events in order for later replay. RunOrdered gives each
// job its own Buffer and replays them in index order, so a merged trace is
// deterministic regardless of scheduling.
type Buffer struct {
	Events []Event
}

// Emit implements Tracer. Slice-carrying events are deep-copied so the
// buffer stays valid after the emitter reuses its scratch space.
func (b *Buffer) Emit(ev Event) {
	switch e := ev.(type) {
	case CacheEvent:
		e.Ops = append([]CacheOpStats(nil), e.Ops...)
		ev = e
	}
	b.Events = append(b.Events, ev)
}

// ReplayTo re-emits the buffered events, in order, into t. A nil t is a
// no-op.
func (b *Buffer) ReplayTo(t Tracer) {
	if t == nil {
		return
	}
	for _, ev := range b.Events {
		t.Emit(ev)
	}
}

// RunOrdered runs job(0), …, job(n-1) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS). It is the one parallel runner behind
// harness.RunSuite and `bddmin -all`, whose jobs each build their own
// manager and write only their own slots of the caller's result slices.
//
// With a non-nil t, each job traces into its own Buffer, passed as tr
// (nil otherwise), and after every job has returned the buffers are
// replayed into t in index order. A job's panic is recovered on its
// worker and re-raised on the caller's goroutine after every job has
// returned and the buffers of the jobs before it have been replayed, so
// the caller's deferred recover sees it.
func RunOrdered(n, workers int, t Tracer, job func(i int, tr Tracer)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bufs := make([]*Buffer, n)
	crashes := make([]any, n)
	run := func(i int) {
		defer func() { crashes[i] = recover() }()
		var tr Tracer
		if t != nil {
			bufs[i] = &Buffer{}
			tr = bufs[i]
		}
		job(i, tr)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, crash := range crashes {
		if crash != nil {
			panic(crash)
		}
		if bufs[i] != nil {
			bufs[i].ReplayTo(t)
		}
	}
}
