// Command benchdump measures the kernel's hot paths and writes the results
// as BENCH_kernel.json, the committed record that EXPERIMENTS.md's kernel
// table is generated from.
//
// Each entry is one testing.Benchmark loop (micro/<name>) on a
// deterministic pool of random functions: Support / Size / Density /
// SharedSize / ITE / budgeted ITE (micro/budget_overhead, the governance
// tax against micro/ite) / Constrain / GC / OSM-match / TSM-match /
// level-match (micro/levelmatch, one opt_lv pass), with ns/op and
// allocs/op. The stamped traversals and match kernels must report
// 0 allocs/op. To profile one loop, run `go test -bench X -cpuprofile F`
// in internal/bdd or internal/core.
//
// Usage:
//
//	benchdump [-o BENCH_kernel.json] [-q]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
)

// schema identifies the BENCH_kernel.json layout version.
const schema = "bddmin-bench-kernel/7"

// report is the BENCH_kernel.json document.
type report struct {
	Schema     string     `json:"schema"`
	Timestamp  time.Time  `json:"timestamp"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Benchmarks []benchRow `json:"benchmarks"`
}

// benchRow is one micro-benchmark's testing.BenchmarkResult.
type benchRow struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func main() {
	var (
		outFile = flag.String("o", "BENCH_kernel.json", "output file (\"-\" for stdout)")
		quiet   = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	rep := report{
		Schema:     schema,
		Timestamp:  time.Now().UTC(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, mb := range microBenches() {
		res := testing.Benchmark(mb.fn)
		row := benchRow{
			Name:        "micro/" + mb.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%-24s %12.1f ns/op %6d allocs/op\n", row.Name, row.NsPerOp, row.AllocsPerOp)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		data = append(data, '\n')
		if *outFile == "-" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(*outFile, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *outFile != "-" && !*quiet {
		fmt.Fprintf(os.Stderr, "report written to %s\n", *outFile)
	}
}

type microBench struct {
	name string
	fn   func(b *testing.B)
}

// pool builds a deterministic set of random functions over n variables,
// mirroring the bdd package's internal benchSetup but through the public
// API.
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

func microBenches() []microBench {
	return []microBench{
		{"support", func(b *testing.B) {
			m, fs := pool(14, 16, 7)
			var buf []bdd.Var
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = m.AppendSupport(buf[:0], fs[i%16])
			}
		}},
		{"size", func(b *testing.B) {
			m, fs := pool(14, 16, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Size(fs[i%16])
			}
		}},
		{"density", func(b *testing.B) {
			m, fs := pool(14, 16, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Density(fs[i%16])
			}
		}},
		{"shared_size", func(b *testing.B) {
			m, fs := pool(14, 16, 9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.SharedSize(fs...)
			}
		}},
		{"ite", func(b *testing.B) {
			m, fs := pool(12, 64, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					m.FlushCaches()
				}
				m.ITE(fs[i%64], fs[(i+7)%64], fs[(i+13)%64])
			}
		}},
		{"budget_overhead", func(b *testing.B) {
			// Identical workload to micro/ite but with a generous (never
			// firing) kernel budget attached: the delta against micro/ite is
			// the cost of resource governance on the hottest path, tracked in
			// the trajectory so it stays within the <2% target.
			m, fs := pool(12, 64, 1)
			m.SetBudget(&bdd.Budget{MaxNodesMade: 1 << 62})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					m.FlushCaches()
				}
				m.ITE(fs[i%64], fs[(i+7)%64], fs[(i+13)%64])
			}
		}},
		{"constrain", func(b *testing.B) {
			m, fs := pool(12, 64, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := fs[(i+17)%64]
				if c == bdd.Zero {
					continue
				}
				if i%256 == 0 {
					m.FlushCaches()
				}
				m.Constrain(fs[i%64], c)
			}
		}},
		{"gc", func(b *testing.B) {
			m, fs := pool(12, 32, 11)
			for _, f := range fs {
				m.Protect(f)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Regrow some garbage, then collect: steady-state GC cost.
				_ = m.Xor(fs[i%32], fs[(i+5)%32])
				m.GC()
			}
		}},
		{"osm_match", func(b *testing.B) {
			m, fs := pool(12, 64, 21)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					m.FlushCaches()
				}
				m.MatchOSM(fs[i%64], fs[(i+7)%64], fs[(i+13)%64], fs[(i+29)%64])
			}
		}},
		{"tsm_match", func(b *testing.B) {
			m, fs := pool(12, 64, 22)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					m.FlushCaches()
				}
				m.MatchTSM(fs[i%64], fs[(i+7)%64], fs[(i+13)%64], fs[(i+29)%64])
			}
		}},
		{"levelmatch", func(b *testing.B) {
			// One full opt_lv pass over a random incompletely specified
			// function: collect + signature + solve at every level. Caches
			// are flushed per iteration so each pass pays the kernels' cost.
			m, fs := pool(12, 2, 23)
			f, c := fs[0], fs[1]
			if c == bdd.Zero {
				c = bdd.One
			}
			opt := &core.OptLv{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.FlushCaches()
				opt.Minimize(m, f, c)
			}
		}},
	}
}
