// Package kernelbench defines the kernel micro-benchmarks that
// BENCH_kernel.json publishes, each loop once. cmd/benchdump times every
// entry under testing.Benchmark, `go test -bench Micro` in this package
// runs them under the same names (micro/ite is BenchmarkMicro/ite), and
// the package's allocation test replays each loop under
// testing.AllocsPerRun.
//
// The loops run on deterministic pools of random functions: Support /
// Size / Density / SharedSize / ITE / budgeted ITE (budget_overhead, the
// governance tax against ite) / Constrain / GC / the OSM and TSM match
// tests of Definition 5 / one opt_lv pass of §3.3 (levelmatch).
//
// micro/ite, micro/budget_overhead, micro/osm_match and micro/tsm_match
// flush the computed cache only every 1024 calls, and micro/constrain
// every 256, so they time a warm cache over 64 functions. The paper's
// protocol flushes before every heuristic, and its experiment never runs
// that warm: for a change to the cache's size or policy these five can
// point the opposite way from the experiment's time. micro/levelmatch
// flushes before every pass.
package kernelbench

import (
	"math/rand"
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
)

// Micro is one published micro-benchmark. Setup builds its inputs on a
// fresh manager and returns the loop body, which runs iteration i.
type Micro struct {
	Name  string
	Setup func() func(i int)
}

// Bench runs mb's loop b.N times after its setup.
func (mb Micro) Bench(b *testing.B) {
	step := mb.Setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// pool builds a deterministic set of random functions over n variables.
func pool(n, count int, seed int64) (*bdd.Manager, []bdd.Ref) {
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(seed))
	vs := make([]bdd.Var, n)
	for i := range vs {
		vs[i] = bdd.Var(i)
	}
	funcs := make([]bdd.Ref, count)
	for i := range funcs {
		vals := make([]bool, 1<<n)
		for j := range vals {
			vals[j] = rng.Intn(2) == 1
		}
		funcs[i] = m.FromTruthTable(vs, vals)
	}
	return m, funcs
}

// ite is the body of micro/ite and micro/budget_overhead.
func ite(m *bdd.Manager, fs []bdd.Ref) func(int) {
	return func(i int) {
		if i%1024 == 0 {
			m.FlushCaches()
		}
		m.ITE(fs[i%64], fs[(i+7)%64], fs[(i+13)%64])
	}
}

// Micros lists the published loops in BENCH_kernel.json's order.
var Micros = []Micro{
	{"support", func() func(int) {
		m, fs := pool(14, 16, 7)
		var buf []bdd.Var
		return func(i int) { buf = m.AppendSupport(buf[:0], fs[i%16]) }
	}},
	{"size", func() func(int) {
		m, fs := pool(14, 16, 7)
		return func(i int) { m.Size(fs[i%16]) }
	}},
	{"density", func() func(int) {
		m, fs := pool(14, 16, 8)
		return func(i int) { m.Density(fs[i%16]) }
	}},
	{"shared_size", func() func(int) {
		m, fs := pool(14, 16, 9)
		return func(int) { m.SharedSize(fs...) }
	}},
	{"ite", func() func(int) {
		return ite(pool(12, 64, 1))
	}},
	{"budget_overhead", func() func(int) {
		// micro/ite with a budget that never fires: the difference is the
		// cost of resource governance on the hottest path.
		m, fs := pool(12, 64, 1)
		m.SetBudget(&bdd.Budget{MaxNodesMade: 1 << 62})
		return ite(m, fs)
	}},
	{"constrain", func() func(int) {
		m, fs := pool(12, 64, 5)
		return func(i int) {
			c := fs[(i+17)%64]
			if c == bdd.Zero {
				return
			}
			if i%256 == 0 {
				m.FlushCaches()
			}
			m.Constrain(fs[i%64], c)
		}
	}},
	{"gc", func() func(int) {
		m, fs := pool(12, 32, 11)
		for _, f := range fs {
			m.Protect(f)
		}
		// Regrow some garbage, then collect: steady-state GC cost.
		return func(i int) {
			_ = m.Xor(fs[i%32], fs[(i+5)%32])
			m.GC()
		}
	}},
	{"osm_match", func() func(int) {
		m, fs := pool(12, 64, 21)
		return func(i int) {
			if i%1024 == 0 {
				m.FlushCaches()
			}
			m.MatchOSM(fs[i%64], fs[(i+7)%64], fs[(i+13)%64], fs[(i+29)%64])
		}
	}},
	{"tsm_match", func() func(int) {
		m, fs := pool(12, 64, 22)
		return func(i int) {
			if i%1024 == 0 {
				m.FlushCaches()
			}
			m.MatchTSM(fs[i%64], fs[(i+7)%64], fs[(i+13)%64], fs[(i+29)%64])
		}
	}},
	{"levelmatch", func() func(int) {
		// One full opt_lv pass over a random incompletely specified
		// function: collect + signature + solve at every level. Caches
		// are flushed per pass so each pass pays the kernels' cost.
		m, fs := pool(12, 2, 23)
		f, c := fs[0], fs[1]
		if c == bdd.Zero {
			c = bdd.One
		}
		opt := &core.OptLv{}
		return func(int) {
			m.FlushCaches()
			opt.Minimize(m, f, c)
		}
	}},
}
