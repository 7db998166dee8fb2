// Package harness instruments the FSM equivalence application exactly the
// way the paper's experiments do (Section 4.1): every internal call to the
// frontier minimization is intercepted and treated as an instance of the
// exact BDD minimization problem; all heuristics are run on it with the
// computed caches flushed first (so no heuristic profits from a
// predecessor's work), sizes and runtimes are recorded, the lower bound
// over every cube of the care set is computed, and the constrain result
// is handed back to the traversal. Calls where c is a cube or c is
// contained in f or ¬f are filtered out, since most heuristics find the
// minimum in those cases.
//
// Aggregations reproduce the paper's Table 3 (cumulative sizes, % of min,
// runtimes, ranks over all calls and per c_onset_size bucket), Table 4
// (head-to-head win percentages) and Figure 3 (robustness curves: % of
// calls within x% of the best heuristic).
package harness

import (
	"fmt"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
	"bddmin/internal/fsm"
	"bddmin/internal/obs"
)

// cacheSnapshot converts the manager's per-op computed-cache counters
// since the last flush into a trace event.
func cacheSnapshot(m *bdd.Manager, benchmark string, call int, scope string) obs.CacheEvent {
	stats := m.CacheStatsByOp()
	ops := make([]obs.CacheOpStats, len(stats))
	for i, s := range stats {
		ops[i] = obs.CacheOpStats{Op: s.Op, Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions}
	}
	return obs.CacheEvent{Benchmark: benchmark, Call: call, Scope: scope, Ops: ops}
}

// HeurResult is one heuristic's outcome on one call.
type HeurResult struct {
	Size    int
	Runtime time.Duration
}

// CallRecord is one intercepted minimization instance with all heuristic
// outcomes.
type CallRecord struct {
	Benchmark string
	// Iteration is the 1-based sequence number of the recorded call
	// within its benchmark run.
	Iteration int
	// COnsetPct is the paper's c_onset_size: the percentage of onset
	// points of the care function over the Boolean space spanned by the
	// union of the variable supports of f and c.
	COnsetPct float64
	// FOrigSize is |f|.
	FOrigSize int
	// LowerBound is Section 4.1.1's lower bound: the largest
	// |constrain(f, p)| over the cubes p of c (core.LowerBound).
	LowerBound int
	// MinSize is the smallest size over all heuristics (the paper's
	// "min" pseudo-heuristic).
	MinSize int
	// Results maps heuristic name to its outcome.
	Results map[string]HeurResult
}

// Config tunes the collector.
type Config struct {
	// Heuristics to run on every call. Defaults to
	// core.RegistryWithBounds() (the paper's nine heuristics plus
	// f_and_c, f_or_nc, f_orig).
	Heuristics []core.Minimizer
	// LowerBoundCubes was the lower bound's cube budget.
	//
	// Deprecated: ignored. core.LowerBound covers every cube of c.
	LowerBoundCubes int
	// Validate re-checks every result against the cover definition.
	Validate bool
	// Tracer, when non-nil, receives the pipeline event stream: one
	// obs.CallEvent per intercepted instance, one obs.HeuristicEvent plus
	// one computed-cache snapshot per heuristic run, and per-benchmark
	// bracketing/GC events from the runner. Tracers follow the manager's
	// concurrency model (single-goroutine); RunSuite gives each
	// worker a private obs.Buffer and merges deterministically.
	Tracer obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Heuristics == nil {
		c.Heuristics = core.RegistryWithBounds()
	}
	return c
}

// Collector intercepts minimization calls and accumulates records.
type Collector struct {
	cfg Config
	// Records lists the instrumented calls in order.
	Records []CallRecord
	// FilteredTrivial counts calls skipped by the paper's filter
	// (c cube, c ≤ f, or c ≤ ¬f).
	FilteredTrivial int
	benchmark       string
	iteration       int
}

// NewCollector builds a collector with the given configuration.
func NewCollector(cfg Config) *Collector {
	return &Collector{cfg: cfg.withDefaults()}
}

// SetBenchmark tags subsequent records.
func (c *Collector) SetBenchmark(name string) {
	c.benchmark = name
	c.iteration = 0
}

// Tracer returns the collector's event sink (nil when tracing is off).
func (c *Collector) Tracer() obs.Tracer { return c.cfg.Tracer }

// SetTracer swaps the collector's event sink; the runner uses this to
// stack per-benchmark trace files on top of the configured tracer.
func (c *Collector) SetTracer(tr obs.Tracer) { c.cfg.Tracer = tr }

// HeuristicNames lists the configured heuristics in run order.
func (c *Collector) HeuristicNames() []string {
	var names []string
	for _, h := range c.cfg.Heuristics {
		names = append(names, h.Name())
	}
	return names
}

// Hook returns the fsm.MinimizeHook that intercepts the frontier-set
// minimization calls ([U, U + ¬R] — the large-onset instances). The value
// returned to the traversal is always the constrain result, mirroring the
// paper's instrumented SIS (some call sites rely on constrain's special
// properties, and the traversal must stay identical across experiment
// configurations).
func (c *Collector) Hook() fsm.MinimizeHook {
	return func(m *bdd.Manager, f, cc bdd.Ref) bdd.Ref {
		c.record(m, f, cc)
		return m.Constrain(f, cc)
	}
}

// Observer returns the fsm.ConstrainObserver that intercepts the
// per-latch δ_i ↓ S constrain calls of the functional-vector image
// computation — the bulk of the paper's instances, whose care functions
// are sparse state sets (the c_onset_size < 5% bucket).
func (c *Collector) Observer() fsm.ConstrainObserver {
	return func(m *bdd.Manager, f, cc bdd.Ref) {
		c.record(m, f, cc)
	}
}

func (c *Collector) record(m *bdd.Manager, f, cc bdd.Ref) {
	// The paper's filter: most heuristics find the minimum when c is a
	// cube or c is contained in f or ¬f; such calls are excluded.
	if m.IsCube(cc) || m.Leq(cc, f) || m.Disjoint(cc, f) {
		c.FilteredTrivial++
		return
	}
	fSize := m.Size(f)
	c.iteration++
	rec := CallRecord{
		Benchmark: c.benchmark,
		Iteration: c.iteration,
		COnsetPct: m.Density(cc) * 100,
		FOrigSize: fSize,
		Results:   make(map[string]HeurResult, len(c.cfg.Heuristics)),
		MinSize:   1 << 30,
	}
	tr := c.cfg.Tracer
	if tr != nil {
		tr.Emit(obs.CallEvent{
			Benchmark: c.benchmark, Call: c.iteration,
			COnsetPct: rec.COnsetPct, FSize: fSize,
		})
	}
	for _, h := range c.cfg.Heuristics {
		// Flush the shared computed caches so each heuristic is measured
		// cold, as the paper does by invoking the garbage collector.
		m.FlushCaches()
		start := time.Now()
		g := h.Minimize(m, f, cc)
		elapsed := time.Since(start)
		if c.cfg.Validate && !m.Cover(g, f, cc) {
			panic(fmt.Sprintf("harness: heuristic %s returned a non-cover on %s iteration %d",
				h.Name(), c.benchmark, c.iteration))
		}
		size := m.Size(g)
		rec.Results[h.Name()] = HeurResult{Size: size, Runtime: elapsed}
		if size < rec.MinSize {
			rec.MinSize = size
		}
		if tr != nil {
			tr.Emit(obs.HeuristicEvent{
				Name: h.Name(), Criterion: core.CriterionName(h.Name()),
				Benchmark: c.benchmark, Call: c.iteration,
				InSize: fSize, OutSize: size,
				Accepted: size <= fSize, Duration: elapsed,
			})
			// The caches were flushed just before this heuristic, so the
			// snapshot isolates its cache behavior.
			tr.Emit(cacheSnapshot(m, c.benchmark, c.iteration, h.Name()))
		}
	}
	m.FlushCaches()
	rec.LowerBound = core.LowerBound(m, f, cc)
	c.Records = append(c.Records, rec)
}

// Bucket classifies calls by c_onset_size as in the paper: < 5%, the
// middle band, > 95%, and the catch-all.
type Bucket int

// Buckets of Table 3.
const (
	AllCalls Bucket = iota
	SmallOnset
	MidOnset
	LargeOnset
)

func (b Bucket) String() string {
	switch b {
	case AllCalls:
		return "all calls"
	case SmallOnset:
		return "c_onset_size < 5%"
	case MidOnset:
		return "5% <= c_onset_size <= 95%"
	case LargeOnset:
		return "c_onset_size > 95%"
	}
	return "invalid"
}

// In reports whether a record falls into the bucket.
func (b Bucket) In(r CallRecord) bool {
	switch b {
	case AllCalls:
		return true
	case SmallOnset:
		return r.COnsetPct < 5
	case MidOnset:
		return r.COnsetPct >= 5 && r.COnsetPct <= 95
	case LargeOnset:
		return r.COnsetPct > 95
	}
	return false
}

// Filter returns the records in the bucket.
func Filter(records []CallRecord, b Bucket) []CallRecord {
	var out []CallRecord
	for _, r := range records {
		if b.In(r) {
			out = append(out, r)
		}
	}
	return out
}
