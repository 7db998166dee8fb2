// Command benchdump measures the kernel's hot paths and the benchmark-suite
// wall-clock, and writes the results as BENCH_kernel.json so successive
// performance PRs have a machine-readable trajectory.
//
// Two families are recorded:
//
//   - micro: Support / Size / Density / SharedSize / ITE / budgeted ITE
//     (micro/budget_overhead, the governance tax against micro/ite) /
//     Constrain / GC / OSM-match / TSM-match / level-match
//     (micro/levelmatch) on a deterministic pool of random functions, via
//     testing.Benchmark, with ns/op and allocs/op (the stamped traversals
//     and match kernels must report 0 allocs/op);
//   - suite: one instrumented FSM self-equivalence sweep over the selected
//     benchmarks, with one worker and with -workers workers, with
//     NodesMade as the work measure, plus one whole-network don't-care
//     optimization run (suite/netopt) on the first selected benchmark,
//     recording the per-sweep node-count trajectory.
//
// The sequential sweep runs with the observability tracer attached, and
// its aggregated per-heuristic breakdown (applications, acceptances, wins,
// nodes saved, cumulative time) lands in the report's "heuristics"
// section (schema bddmin-bench-kernel/6).
//
// Usage:
//
//	benchdump [-o BENCH_kernel.json] [-workers N]
//	          [-bench tlc,tbk,...] [-nosuite] [-q] [-cpuprofile FILE]
//	          [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/circuits"
	"bddmin/internal/core"
	"bddmin/internal/harness"
	"bddmin/internal/network"
	"bddmin/internal/obs"
)

func main() {
	var (
		outFile = flag.String("o", "BENCH_kernel.json", "output file (\"-\" for stdout)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker count for the parallel suite run")
		bench   = flag.String("bench", "tlc,minmax5,tbk,s386", "comma-separated suite benchmarks")
		noSuite = flag.Bool("nosuite", false, "skip the suite-level runs (micros only)")
		quiet   = flag.Bool("q", false, "suppress progress output")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	// Validate the suite selection up front so a typo fails fast instead of
	// surfacing after the micros (or, with -nosuite, never at all).
	names := strings.Split(*bench, ",")
	for _, n := range names {
		if _, err := circuits.ByName(n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	report := harness.BenchReport{
		Schema:     harness.BenchReportSchema,
		Timestamp:  time.Now().UTC(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    *workers,
	}
	progress := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}

	for _, mb := range microBenches() {
		res := testing.Benchmark(mb.fn)
		kb := harness.KernelBench{
			Name:        "micro/" + mb.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		report.Benchmarks = append(report.Benchmarks, kb)
		progress("%-24s %12.1f ns/op %6d allocs/op\n", kb.Name, kb.NsPerOp, kb.AllocsPerOp)
	}

	if !*noSuite {
		// The sequential sweep carries the metrics tracer; its per-heuristic
		// aggregation becomes the report's breakdown section. The parallel
		// sweep runs untraced so the speedup measurement stays clean.
		var metrics obs.Metrics
		seqRC := harness.RunConfig{Collector: harness.Config{LowerBoundCubes: 100, Tracer: &metrics}}
		rc := harness.RunConfig{Collector: harness.Config{LowerBoundCubes: 100}}
		seq, err := timeSuite("suite/sequential", func() ([]harness.BenchmarkRun, error) {
			_, runs, err := harness.RunSuite(names, seqRC, 1)
			return runs, err
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report.Benchmarks = append(report.Benchmarks, seq)
		report.Heuristics = harness.HeuristicSummaries(&metrics)
		progress("%-24s %12.1f ns/op (%.2fs)\n", seq.Name, seq.NsPerOp, seq.NsPerOp/1e9)
		par, err := timeSuite(fmt.Sprintf("suite/parallel-%d", *workers), func() ([]harness.BenchmarkRun, error) {
			_, runs, err := harness.RunSuite(names, rc, *workers)
			return runs, err
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report.Benchmarks = append(report.Benchmarks, par)
		progress("%-24s %12.1f ns/op (%.2fs, %.2fx vs sequential)\n",
			par.Name, par.NsPerOp, par.NsPerOp/1e9, seq.NsPerOp/par.NsPerOp)
		// Whole-network don't-care optimization of the first selected
		// benchmark (package network): wall-clock, kernel work, and the
		// per-sweep node-count trajectory (sweep_nodes, schema /5). The
		// trajectory is monotone by construction, so a regression here means
		// the windowed CDC extraction stopped finding flexibility.
		info, err := circuits.ByName(names[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		netStart := time.Now()
		res, err := network.Optimize(info.Build(), network.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		netKB := harness.KernelBench{
			Name:       "suite/netopt",
			Iterations: 1,
			NsPerOp:    float64(time.Since(netStart).Nanoseconds()),
			NodesMade:  res.NodesMade,
		}
		for _, s := range res.Sweeps {
			netKB.SweepNodes = append(netKB.SweepNodes, s.Nodes)
		}
		report.Benchmarks = append(report.Benchmarks, netKB)
		progress("%-24s %12.1f ns/op (%s: nodes %d -> %d, %d sweeps)\n",
			netKB.Name, netKB.NsPerOp, info.Name, res.InitialNodes, res.FinalNodes, len(res.Sweeps))
	}

	var out *os.File
	if *outFile == "-" {
		out = os.Stdout
	} else {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := harness.WriteBenchJSON(out, report); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *outFile != "-" {
		progress("report written to %s\n", *outFile)
	}
}

// timeSuite wall-clocks one full suite sweep and folds the per-benchmark
// NodesMade counters into the record.
func timeSuite(name string, run func() ([]harness.BenchmarkRun, error)) (harness.KernelBench, error) {
	start := time.Now()
	runs, err := run()
	if err != nil {
		return harness.KernelBench{}, err
	}
	elapsed := time.Since(start)
	var nodes uint64
	for _, r := range runs {
		nodes += r.NodesMade
	}
	return harness.KernelBench{
		Name:       name,
		Iterations: 1,
		NsPerOp:    float64(elapsed.Nanoseconds()),
		NodesMade:  nodes,
	}, nil
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
