// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 4) on the substituted benchmark suite: it runs the
// instrumented FSM self-equivalence checks, aggregates the intercepted
// minimization calls, and prints Table 1 (criteria properties), Table 2
// (the heuristic family), Table 3 (cumulative sizes / runtimes / ranks per
// c_onset_size bucket), Table 4 (head-to-head wins), Figure 3 (robustness
// curves) and the Section 4.2 summary scalars.
//
// Usage:
//
//	experiments [-bench s344,tlc,...] [-table N] [-figure N] [-summary]
//	            [-iters N] [-maxnodes N] [-timeout D] [-validate]
//	            [-o FILE] [-workers N] [-trace-dir DIR] [-cpuprofile FILE]
//
// The benchmarks run on a pool of -workers workers (default 1, 0 =
// GOMAXPROCS), one BDD manager per benchmark; tables and records are
// identical for every worker count (only wall-clock changes).
//
// With -trace-dir the harness writes one structured JSONL trace file per
// benchmark (<name>.trace.jsonl): the intercepted calls, every heuristic
// application with its computed-cache snapshot, and per-benchmark GC
// totals. Traces omit durations unless -trace-timings is set, so repeated
// runs are byte-identical. In parallel runs each benchmark's file is
// written by its own worker; file contents are per-benchmark, hence
// deterministic regardless of worker count.
//
// With no selection flags, everything is produced.
//
// -maxnodes and -timeout are enforced inside the BDD kernels: a benchmark
// that trips a bound reports an aborted (degraded) traversal instead of
// running away, and the abort is recorded in the trace stream. Internal
// panics are caught at the top level and reported with the benchmark
// selection (exit status 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"bddmin/internal/core"
	"bddmin/internal/harness"
)

func main() {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "experiments: internal error: %v\n", r)
			sel := "(full suite)"
			if f := flag.Lookup("bench"); f != nil && f.Value.String() != "" {
				sel = f.Value.String()
			}
			fmt.Fprintf(os.Stderr, "experiments: while running benchmarks %s\n", sel)
			os.Exit(2)
		}
	}()
	run()
}

func run() {
	var (
		benchList = flag.String("bench", "", "comma-separated benchmark names (default: full suite)")
		table     = flag.Int("table", 0, "produce only this table (1-4)")
		figure    = flag.Int("figure", 0, "produce only this figure (3)")
		summary   = flag.Bool("summary", false, "produce only the Section 4.2 summary")
		iters     = flag.Int("iters", 64, "max BFS iterations per benchmark")
		maxNodes  = flag.Int("maxnodes", 2_000_000, "abort a benchmark beyond this many live BDD nodes (enforced inside the kernels)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget per benchmark, e.g. 30s (0 = none)")
		validate  = flag.Bool("validate", false, "verify every heuristic result is a cover")
		extended  = flag.Bool("extended", false, "also run the extension heuristics (sched, robust)")
		workers   = flag.Int("workers", 1, "run benchmarks across this many workers (one BDD manager each; 0 = GOMAXPROCS)")
		outFile   = flag.String("o", "", "also write the report to this file")
		csvFile   = flag.String("csv", "", "write raw per-call records to this CSV file")
		quiet     = flag.Bool("q", false, "suppress per-benchmark progress")
		traceDir  = flag.String("trace-dir", "", "write one JSONL trace file per benchmark into this directory")
		traceTime = flag.Bool("trace-timings", false, "include nanosecond durations in trace files")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	if *table < 0 || *table > 4 {
		fmt.Fprintf(os.Stderr, "experiments: -table must be 0-4, got %d\n", *table)
		os.Exit(1)
	}
	if *figure != 0 && *figure != 3 {
		fmt.Fprintf(os.Stderr, "experiments: -figure must be 0 or 3, got %d\n", *figure)
		os.Exit(1)
	}
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

	var out io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	all := *table == 0 && *figure == 0 && !*summary

	if all || *table == 1 {
		fmt.Fprintln(out, renderTable1())
	}
	if all || *table == 2 {
		fmt.Fprintln(out, renderTable2())
	}
	if !(all || *table >= 3 || *figure == 3 || *summary) {
		return
	}

	var names []string
	if *benchList != "" {
		names = strings.Split(*benchList, ",")
	}
	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}
	cfg := harness.Config{Validate: *validate}
	if *extended {
		cfg.Heuristics = append(core.ExtendedRegistry(), core.FAndC(), core.FOrNC(), core.FOrig())
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	rc := harness.RunConfig{
		Collector:     cfg,
		MaxIterations: *iters,
		MaxNodes:      *maxNodes,
		Timeout:       *timeout,
		Progress:      progress,
		TraceDir:      *traceDir,
		TraceTimings:  *traceTime,
	}
	col, runs, err := harness.RunSuite(names, rc, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Fprintf(out, "Benchmarks run: %d, instrumented minimization calls: %d (trivial filtered: %d)\n\n",
		len(runs), len(col.Records), col.FilteredTrivial)
	if *csvFile != "" {
		f, err := os.Create(*csvFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := harness.WriteCSV(f, col.Records, col.HeuristicNames()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(out, "raw records written to %s\n\n", *csvFile)
	}
	if all || *table == 3 {
		fmt.Fprintln(out, harness.RenderTable3(col.Records, col.HeuristicNames()))
	}
	if all || *table == 4 {
		fmt.Fprintln(out, harness.RenderTable4(col.Records, harness.Table4Names()))
	}
	if all || *figure == 3 {
		fmt.Fprintln(out, harness.RenderFigure3(col.Records, harness.Figure3Names()))
	}
	if all || *summary {
		fmt.Fprintln(out, harness.RenderPerBenchmark(col.Records))
		fmt.Fprintln(out, harness.Summarize(col).String())
		fmt.Fprintln(out, "Orthogonality (sum of head-to-head win rates; higher = more complementary):")
		for _, pair := range [][2]string{
			{"const", "tsm_td"}, {"const", "opt_lv"}, {"osm_bt", "tsm_td"}, {"restr", "opt_lv"},
		} {
			fmt.Fprintf(out, "  %-7s vs %-7s %.1f%%   [paper reports 54.3%% for const/tsm_td]\n",
				pair[0], pair[1], harness.Orthogonality(col.Records, pair[0], pair[1]))
		}
	}
}

// renderTable1 prints the matching-criteria property table (Table 1).
func renderTable1() string {
	var b strings.Builder
	b.WriteString("Table 1 — properties of the matching criteria\n")
	b.WriteString("Criterion  Reflexive  Symmetric  Transitive\n")
	b.WriteString("--------------------------------------------\n")
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for _, cr := range core.Criteria() {
		fmt.Fprintf(&b, "%-9s  %-9s  %-9s  %-9s\n", cr, yn(cr.Reflexive()), yn(cr.Symmetric()), yn(cr.Transitive()))
	}
	return b.String()
}

// renderTable2 prints the sibling-heuristic family (Table 2).
func renderTable2() string {
	var b strings.Builder
	b.WriteString("Table 2 — heuristics based on matching siblings\n")
	b.WriteString("#   Criterion  match-compl  no-new-vars  Name/Comment\n")
	b.WriteString("------------------------------------------------------\n")
	type row struct {
		cr         core.Criterion
		compl, nnv bool
		comment    string
	}
	rows := []row{
		{core.OSDM, false, false, "constrain"},
		{core.OSDM, false, true, "restrict"},
		{core.OSDM, true, false, "same as 1"},
		{core.OSDM, true, true, "same as 2"},
		{core.OSM, false, false, "osm_td"},
		{core.OSM, false, true, "osm_nv"},
		{core.OSM, true, false, "osm_cp"},
		{core.OSM, true, true, "osm_bt"},
		{core.TSM, false, false, "tsm_td"},
		{core.TSM, false, true, "same as 9"},
		{core.TSM, true, false, "tsm_cp"},
		{core.TSM, true, true, "same as 11"},
	}
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for i, r := range rows {
		name := core.NewSiblingHeuristic(r.cr, r.compl, r.nnv).Name()
		fmt.Fprintf(&b, "%-3d %-9s  %-11s  %-11s  %s (canonical: %s)\n",
			i+1, r.cr, yn(r.compl), yn(r.nnv), r.comment, name)
	}
	return b.String()
}
