package main

import (
	"fmt"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/circuits"
	"bddmin/internal/core"
	"bddmin/internal/fsm"
	"bddmin/internal/harness"
	"bddmin/internal/logic"
)

// table3 is the paper's experiment (Section 4.1) as cmd/experiments runs
// it: each machine is checked against itself by functional-vector
// traversal, every non-trivial minimization call is intercepted, and the 12
// RegistryWithBounds heuristics run on it with caches flushed in between,
// followed by the 1000-cube lower bound. An operation is one intercepted
// call.
//
// s641, s953 and s1238 are left out: under cmd/experiments on a 2-vCPU
// Xeon VM they take 36 s of a 39 s suite pass (s953 alone 25 s, 11 s of it
// in the 1000-cube lower bound), more than one run may measure.
// cmd/experiments keeps the full suite.
var table3Machines = []string{
	"s344", "s386", "s510", "s820", "s1488", "scf", "styr", "tbk",
	"mult16b", "cbp.32.4", "minmax5", "tlc",
}

// warmMachines run once at the end of set-up, so that timing starts in a
// process whose heap and code are already in use; the batch workloads'
// set-up would otherwise last a few milliseconds and time mostly noise.
var warmMachines = []string{"tlc", "tbk"}

type table3Runner struct {
	names []string
	nets  []*logic.Network
}

func newTable3Runner(names []string) (*table3Runner, error) {
	r := &table3Runner{names: names}
	for _, name := range names {
		info, err := circuits.ByName(name)
		if err != nil {
			return nil, err
		}
		r.nets = append(r.nets, info.Build())
	}
	return r, nil
}

func setupTable3(o *options) (runner, error) {
	names := o.machines
	if names == nil {
		names = table3Machines
	}
	r, err := newTable3Runner(names)
	if err != nil {
		return nil, err
	}
	warm, err := newTable3Runner(warmMachines)
	if err != nil {
		return nil, err
	}
	if _, err := warm.pass(nil, nil, nil); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *table3Runner) close() {}

// table3Pass is what one pass over the machines produced.
type table3Pass struct {
	latMs      []float64 // per call
	seconds    float64   // the machines' time
	calls      int
	coverNodes int // Σ over calls and heuristics of |g|
	inputNodes int // Σ over calls and heuristics of |f|
	nodesMade  uint64
	gcRuns     int
	failed     int
	errs       []string
}

func (r *table3Runner) measure(o *options, pr *prober, tr *tracer) (*measurement, error) {
	m := &measurement{info: map[string]any{}}
	cache := map[string][2]uint64{}
	var first *table3Pass
	var b batch
	for start := time.Now(); b.more(start, o.seconds); {
		ptr := b.tracer(tr)
		stop := m.gc.track()
		pass, err := r.pass(pr, ptr, cache)
		stop()
		if err != nil {
			return nil, err
		}
		m.done += pass.calls
		m.attempted += pass.calls
		m.failed += pass.failed
		m.errs = append(m.errs, pass.errs...)
		if first == nil {
			first = pass
		} else if pass.calls != first.calls || pass.coverNodes != first.coverNodes {
			// The work is deterministic: every pass must repeat the first.
			m.failed++
			m.errs = append(m.errs, fmt.Sprintf("pass %d: %d calls / %d cover nodes, first pass %d / %d",
				len(b.passes)+1, pass.calls, pass.coverNodes, first.calls, first.coverNodes))
		}
		b.add(pass.latMs, pass.seconds, pr.take(), ptr != nil)
	}
	b.fill(m)
	m.resultSize, m.inputSize = float64(first.coverNodes), float64(first.inputNodes)
	m.calls = first.calls
	m.info["calls_per_pass"] = first.calls
	m.info["cover_nodes"] = first.coverNodes
	m.layers = map[string]float64{
		"core.calls":     float64(first.calls),
		"bdd.nodes_made": float64(first.nodesMade),
		"bdd.gc_runs":    float64(first.gcRuns),
	}
	if tr != nil {
		spans := tr.snapshot()
		self := selfTimes(spans)
		work := float64(rootTime(spans) - totals(spans)["bench.check"])
		m.layers["fsm.self_share"] = float64(self["fsm.product"]+self["fsm.check"]) / work
		m.layers["harness.record_self_share"] = float64(self["harness.record"]) / work
		for _, h := range core.RegistryWithBounds() {
			m.layers["core."+h.Name()+"_share"] = float64(self["core."+h.Name()]) / work
		}
		var hits, lookups uint64
		for op, hm := range cache {
			hits += hm[0]
			lookups += hm[0] + hm[1]
			m.layers["bdd.cache_hit_ratio."+op] = ratio(float64(hm[0]), float64(hm[0]+hm[1]))
		}
		m.layers["bdd.cache_hit_ratio"] = ratio(float64(hits), float64(lookups))
		m.spans = spans
	}
	return m, nil
}

// pass runs every machine once, probing machine speed after each when pr
// is non-nil. With a tracer, the fsm calls, each intercepted call
// (harness.record) and each heuristic (core.<name>) get spans, every
// heuristic result is checked to be a cover outside its span (bench.check,
// whose time the pass does not count), and the computed-cache counters are
// read after each heuristic into cache (op → hits, misses).
func (r *table3Runner) pass(pr *prober, tr *tracer, cache map[string][2]uint64) (*table3Pass, error) {
	p := &table3Pass{}
	var checkNs int64
	heur := core.RegistryWithBounds()
	if tr != nil {
		for i, h := range heur {
			heur[i] = &spanned{Minimizer: h, tr: tr, p: p, cache: cache, checkNs: &checkNs}
		}
	}
	col := harness.NewCollector(harness.Config{Heuristics: heur, LowerBoundCubes: 1000})
	for i, net := range r.nets {
		t0, check0 := time.Now(), checkNs
		if tr != nil {
			tr.enter("bench.machine", i+1)
		}
		m := bdd.New(0)
		col.SetBenchmark(r.names[i])
		before := len(col.Records)
		timed := func(call func()) {
			n := len(col.Records)
			t0 := time.Now()
			if tr != nil {
				tr.enter("harness.record", i+1)
			}
			call()
			if tr != nil {
				tr.exit()
			}
			if len(col.Records) > n {
				p.latMs = append(p.latMs, float64(time.Since(t0))/1e6)
			}
		}
		hook, observe := col.Hook(), col.Observer()
		if tr != nil {
			tr.enter("fsm.product", i+1)
		}
		prod, err := fsm.NewProduct(m, net, net)
		if tr != nil {
			tr.exit()
		}
		if err != nil {
			return nil, fmt.Errorf("table3: %s: %w", r.names[i], err)
		}
		if tr != nil {
			tr.enter("fsm.check", i+1)
		}
		// The options harness.RunBenchmark uses under cmd/experiments defaults.
		res := prod.CheckEquivalence(fsm.Options{
			Minimize: func(m *bdd.Manager, f, c bdd.Ref) (g bdd.Ref) {
				timed(func() { g = hook(m, f, c) })
				return g
			},
			OnConstrain:   func(m *bdd.Manager, f, c bdd.Ref) { timed(func() { observe(m, f, c) }) },
			Method:        fsm.FunctionalVector,
			MaxIterations: 64,
			MaxNodes:      2_000_000,
			GCEvery:       1,
		})
		if tr != nil {
			tr.exit()
			tr.exit()
		}
		if !res.Equal || res.Aborted {
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("%s: self-equivalence %v, aborted %v", r.names[i], res.Equal, res.Aborted))
		}
		p.nodesMade += m.NodesMade()
		p.gcRuns += m.GCRuns()
		for _, rec := range col.Records[before:] {
			if msg := checkRecord(rec); msg != "" {
				p.failed++
				p.errs = append(p.errs, fmt.Sprintf("%s call %d: %s", rec.Benchmark, rec.Iteration, msg))
			}
			for _, hr := range rec.Results {
				p.coverNodes += hr.Size
				p.inputNodes += rec.FOrigSize
			}
		}
		p.seconds += (time.Since(t0) - time.Duration(checkNs-check0)).Seconds()
		if pr != nil {
			pr.probe()
		}
	}
	p.calls = len(col.Records)
	return p, nil
}

// checkRecord tests the invariants every intercepted call must satisfy:
// all heuristics ran, f_orig returned f itself, and the lower bound does not
// exceed the best cover found.
func checkRecord(rec harness.CallRecord) string {
	if len(rec.Results) != len(core.RegistryWithBounds()) {
		return fmt.Sprintf("%d heuristic results", len(rec.Results))
	}
	if got := rec.Results["f_orig"].Size; got != rec.FOrigSize {
		return fmt.Sprintf("f_orig size %d, |f| = %d", got, rec.FOrigSize)
	}
	if rec.LowerBound > rec.MinSize {
		return fmt.Sprintf("lower bound %d above best cover %d", rec.LowerBound, rec.MinSize)
	}
	return ""
}

// spanned wraps a heuristic with a core.<name> span, then checks the
// result is a cover of [f, c] and reads the computed-cache counters
// outside that span.
type spanned struct {
	core.Minimizer
	tr      *tracer
	p       *table3Pass
	cache   map[string][2]uint64
	checkNs *int64
}

func (s *spanned) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	s.tr.enter("core."+s.Name(), 0)
	g := s.Minimizer.Minimize(m, f, c)
	s.tr.exit()
	t0 := time.Now()
	s.tr.enter("bench.check", 0)
	if !m.Cover(g, f, c) {
		s.p.failed++
		s.p.errs = append(s.p.errs, fmt.Sprintf("%s returned a non-cover", s.Name()))
	}
	// The harness flushed the caches just before this heuristic, so the
	// counters are its own.
	for _, st := range m.CacheStatsByOp() {
		hm := s.cache[st.Op]
		s.cache[st.Op] = [2]uint64{hm[0] + st.Hits, hm[1] + st.Misses}
	}
	s.tr.exit()
	*s.checkNs += int64(time.Since(t0))
	return g
}
