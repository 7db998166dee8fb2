// Benchmarks regenerating the paper's tables and figures, one testing.B
// target per table/figure, plus ablation benches for the design choices
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem .
//
// The Table 3/4 and Figure 3 targets drive the same instrumented
// verify-fsm pipeline as cmd/experiments on a small sub-suite per
// iteration; the full-suite numbers are produced by cmd/experiments.
package bddmin_test

import (
	"math/rand"
	"sync"
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
	"bddmin/internal/harness"
)

// corpus builds a deterministic set of minimization instances: random
// incompletely specified functions plus every instance harvested from an
// instrumented traversal of three small benchmark machines.
type instance struct {
	m    *bdd.Manager
	f, c bdd.Ref
}

var (
	corpusOnce sync.Once
	corpus     []instance
	records    []harness.CallRecord
)

func buildCorpus(b *testing.B) ([]instance, []harness.CallRecord) {
	b.Helper()
	corpusOnce.Do(func() {
		rng := rand.New(rand.NewSource(1994))
		for i := 0; i < 40; i++ {
			n := 6 + rng.Intn(5)
			m := bdd.New(n)
			vs := make([]bdd.Var, n)
			for j := range vs {
				vs[j] = bdd.Var(j)
			}
			randF := func() bdd.Ref {
				vals := make([]bool, 1<<n)
				for k := range vals {
					vals[k] = rng.Intn(2) == 1
				}
				return m.FromTruthTable(vs, vals)
			}
			f := randF()
			c := randF()
			if c == bdd.Zero || m.IsCube(c) || m.Leq(c, f) || m.Disjoint(c, f) {
				continue
			}
			corpus = append(corpus, instance{m, f, c})
		}
		col, _, err := harness.RunSuite([]string{"tlc", "minmax5", "tbk"}, harness.RunConfig{}, 1)
		if err != nil {
			panic(err)
		}
		records = col.Records

	})
	return corpus, records
}

// BenchmarkTable1Criteria measures the three matching tests on random
// instance pairs (the inner loop of every heuristic).
func BenchmarkTable1Criteria(b *testing.B) {
	insts, _ := buildCorpus(b)
	for _, cr := range core.Criteria() {
		b.Run(cr.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := insts[i%len(insts)]
				// Pair the instance against a sibling-style variant from
				// the same manager (Refs are manager-relative).
				cr.Matches(in.m, core.ISF{F: in.f, C: in.c}, core.ISF{F: in.f.Not(), C: in.m.Or(in.c, in.f)})
			}
		})
	}
}

// BenchmarkTable2Siblings measures each of the eight distinct sibling
// heuristics (Table 2) on the corpus — the per-call cost column of
// Table 3 in benchmark form.
func BenchmarkTable2Siblings(b *testing.B) {
	insts, _ := buildCorpus(b)
	for _, h := range core.Registry() {
		h := h
		b.Run(h.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := insts[i%len(insts)]
				in.m.FlushCaches()
				h.Minimize(in.m, in.f, in.c)
			}
		})
	}
}

// BenchmarkTable3VerifyFsm measures the full instrumented pipeline —
// traversal, interception, all heuristics, lower bound — on a small
// sub-suite (the full suite is cmd/experiments' job).
func BenchmarkTable3VerifyFsm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := harness.RunSuite([]string{"tlc", "tbk"}, harness.RunConfig{}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4HeadToHead measures the head-to-head aggregation.
func BenchmarkTable4HeadToHead(b *testing.B) {
	_, recs := buildCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.Table4(recs, harness.Table4Names())
	}
}

// BenchmarkFigure1Instance runs every heuristic on the paper's worked
// 3-variable example.
func BenchmarkFigure1Instance(b *testing.B) {
	m := bdd.New(3)
	in := core.MustParseSpec(m, "d1 0d d1 10")
	heus := core.Registry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := heus[i%len(heus)]
		m.FlushCaches()
		h.Minimize(m, in.F, in.C)
	}
}

// BenchmarkFigure3Robustness measures the robustness-curve computation.
func BenchmarkFigure3Robustness(b *testing.B) {
	_, recs := buildCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range harness.Figure3Names() {
			harness.Figure3Curve(recs, n, 2)
		}
	}
}

// BenchmarkAblationNoNewVars compares the no-new-vars flag on and off for
// the osdm and osm criteria (restrict vs constrain, osm_nv vs osm_td) —
// the design choice behind the top of the small-onset bucket.
func BenchmarkAblationNoNewVars(b *testing.B) {
	insts, _ := buildCorpus(b)
	for _, cfg := range []struct {
		name string
		h    core.Minimizer
	}{
		{"osdm/nnv=off", core.NewSiblingHeuristic(core.OSDM, false, false)},
		{"osdm/nnv=on", core.NewSiblingHeuristic(core.OSDM, false, true)},
		{"osm/nnv=off", core.NewSiblingHeuristic(core.OSM, false, false)},
		{"osm/nnv=on", core.NewSiblingHeuristic(core.OSM, false, true)},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				in := insts[i%len(insts)]
				in.m.FlushCaches()
				g := cfg.h.Minimize(in.m, in.f, in.c)
				total += int64(in.m.Size(g))
			}
			b.ReportMetric(float64(total)/float64(b.N), "nodes/op")
		})
	}
}

// BenchmarkAblationComplementMatch compares the match-complement flag on
// and off for osm and tsm — the design enabled by complement edges.
func BenchmarkAblationComplementMatch(b *testing.B) {
	insts, _ := buildCorpus(b)
	for _, cfg := range []struct {
		name string
		h    core.Minimizer
	}{
		{"osm/compl=off", core.NewSiblingHeuristic(core.OSM, false, true)},
		{"osm/compl=on", core.NewSiblingHeuristic(core.OSM, true, true)},
		{"tsm/compl=off", core.NewSiblingHeuristic(core.TSM, false, false)},
		{"tsm/compl=on", core.NewSiblingHeuristic(core.TSM, true, false)},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				in := insts[i%len(insts)]
				in.m.FlushCaches()
				g := cfg.h.Minimize(in.m, in.f, in.c)
				total += int64(in.m.Size(g))
			}
			b.ReportMetric(float64(total)/float64(b.N), "nodes/op")
		})
	}
}

// BenchmarkAblationScheduleWindow sweeps the scheduler's window size and
// stop-top-down parameters (the tuning the paper leaves open).
func BenchmarkAblationScheduleWindow(b *testing.B) {
	insts, _ := buildCorpus(b)
	for _, s := range []*core.Scheduler{
		{WindowSize: 1, SkipLevelMatching: true},
		{WindowSize: 2, SkipLevelMatching: true},
		{WindowSize: 4, SkipLevelMatching: true},
		{WindowSize: 8, SkipLevelMatching: true},
		{WindowSize: 4, StopTopDown: 4, SkipLevelMatching: true},
		{WindowSize: 4, StopTopDown: 8, SkipLevelMatching: true},
		{WindowSize: 4}, // with level matching
	} {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				in := insts[i%len(insts)]
				in.m.FlushCaches()
				g := s.Minimize(in.m, in.f, in.c)
				total += int64(in.m.Size(g))
			}
			b.ReportMetric(float64(total)/float64(b.N), "nodes/op")
		})
	}
}

// BenchmarkOptLv measures the level-matching heuristic alone (the paper's
// "easily the most costly").
func BenchmarkOptLv(b *testing.B) {
	insts, _ := buildCorpus(b)
	o := &core.OptLv{}
	for i := 0; i < b.N; i++ {
		in := insts[i%len(insts)]
		in.m.FlushCaches()
		o.Minimize(in.m, in.f, in.c)
	}
}

// BenchmarkExtensionRobust measures the conclusion's combined heuristic
// against its ingredients.
func BenchmarkExtensionRobust(b *testing.B) {
	insts, _ := buildCorpus(b)
	for _, h := range []core.Minimizer{
		core.NewSiblingHeuristic(core.OSM, true, true),
		&core.OptLv{},
		&core.Robust{},
		&core.Robust{OnsetThreshold: -1},
	} {
		h := h
		name := h.Name()
		if r, ok := h.(*core.Robust); ok && r.OnsetThreshold < 0 {
			name = "robust_always"
		}
		b.Run(name, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				in := insts[i%len(insts)]
				in.m.FlushCaches()
				g := h.Minimize(in.m, in.f, in.c)
				total += int64(in.m.Size(g))
			}
			b.ReportMetric(float64(total)/float64(b.N), "nodes/op")
		})
	}
}
