// Command bddmin minimizes an incompletely specified Boolean function
// given in the paper's leaf notation and reports the covers found by the
// heuristics of the framework.
//
// The spec lists the values of the function on the leaves of the binary
// decision tree left to right, 'd' marking don't cares; e.g. the paper's
// Figure 1 examples are written like "d1 01 1d 01".
//
// Usage:
//
//	bddmin -spec "d1 01 1d 01" [-heuristic osm_bt] [-all] [-exact] [-dot out.dot]
//	       [-workers N] [-trace] [-trace-out trace.jsonl]
//	       [-budget-nodes N] [-timeout D]
//	bddmin -pla file.pla [-output K] ...
//	bddmin -blif file.blif [-node NAME] ...
//	bddmin -network -blif file.blif [-window K] [-sweeps N] [-node-budget N] [-out opt.blif]
//	bddmin -spec - < corpus.txt
//
// With -all, every registered heuristic plus the lower bound is reported;
// with -exact (instances up to 20 don't-care minterms), the brute-force
// exact minimum is included. -all runs the heuristics on a pool of -workers
// workers (default 1, 0 = GOMAXPROCS), each heuristic on a fresh BDD
// manager rebuilt from the input, so no heuristic inherits its
// predecessors' nodes or caches (nor, under -budget-nodes, their live-node
// count); the report is the same for every worker count.
//
// With -blif the instance comes from a logic network: the named internal
// node's function is minimized against the complement of its observability
// don't-care set ([f, ¬ODC], the synthesis-side source of incompletely
// specified functions). Without -node the first internal node with a
// non-trivial ODC is chosen.
//
// With -network the whole BLIF netlist is optimized instead of a single
// node: every internal node is minimized against its windowed compatible
// don't cares (package network) and substituted back when the rewrite
// shrinks it, sweeping to convergence. The run prints the per-sweep cost
// trajectory and the final miter verdict, exits nonzero if the miter
// fails, and -out writes the rewritten netlist. -window sets both the
// fanin and fanout window depth, -sweeps caps the convergence loop, and
// -node-budget bounds each node's window work (a tripped budget skips or
// degrades that node only).
//
// With `-spec -`, instances are read from stdin in the shared corpus
// format (see internal/problem): one per line, either a leaf-notation
// spec or an `@pla path [output]` / `@blif path [node]` file reference
// resolved against the working directory — the same files that drive the
// bddload generator. Each instance is minimized on a fresh manager and
// reported on one line (or one block with -all); -exact and -dot do not
// apply in batch mode.
//
// -trace streams pipeline events (heuristic applications, schedule
// windows, level-match rounds) live to stderr and prints the aggregated
// per-heuristic metrics table after the run; -trace-out additionally
// writes the event stream as JSONL. -cpuprofile/-memprofile write pprof
// profiles.
//
// -budget-nodes and -timeout put each minimization under a kernel
// resource budget: a run that trips its budget degrades gracefully to the
// best valid intermediate cover (at worst f itself) and the report line is
// annotated with the abort reason. Internal panics are caught at the top
// level and reported with the offending input (exit status 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
	"bddmin/internal/obs"
	"bddmin/internal/problem"
)

// currentInput describes the instance being processed, for the top-level
// panic report.
var currentInput string

// main only installs the crash handler: an internal panic (a kernel
// invariant violation, a malformed instance that slipped past parsing)
// becomes a short report naming the offending input instead of a raw
// stack trace, with a distinct exit status.
func main() {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "bddmin: internal error: %v\n", r)
			if currentInput != "" {
				fmt.Fprintf(os.Stderr, "bddmin: while processing %s\n", currentInput)
			}
			os.Exit(2)
		}
	}()
	run()
}

func run() {
	var (
		spec       = flag.String("spec", "", "function in leaf notation, e.g. \"d1 01\"; \"-\" reads a corpus from stdin, one instance per line")
		plaFile    = flag.String("pla", "", "read the instance from an espresso PLA file instead of -spec")
		plaOutput  = flag.Int("output", 0, "which PLA output to minimize")
		blifFile   = flag.String("blif", "", "read the instance from a BLIF netlist: minimize an internal node against its observability don't cares")
		nodeName   = flag.String("node", "", "with -blif, the internal node to minimize (default: first node with a non-trivial ODC)")
		heuristic  = flag.String("heuristic", "osm_bt", "heuristic name (const, restr, osm_td, osm_nv, osm_cp, osm_bt, tsm_td, tsm_cp, opt_lv, f_and_c, f_or_nc, f_orig, sched, sched_w4_s0_nolv, robust)")
		all        = flag.Bool("all", false, "run every heuristic and the lower bound")
		exact      = flag.Bool("exact", false, "also compute the exact minimum by brute force")
		dotFile    = flag.String("dot", "", "write the minimized BDD to this DOT file")
		workersN   = flag.Int("workers", 1, "with -all, run heuristics on this many workers (one BDD manager each; 0 = GOMAXPROCS)")
		trace      = flag.Bool("trace", false, "stream pipeline events to stderr and print the per-heuristic metrics table")
		traceOut   = flag.String("trace-out", "", "write the event stream as JSONL to this file")
		traceTimes = flag.Bool("trace-timings", false, "include nanosecond durations in -trace-out (off keeps traces byte-deterministic)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
		budgetN    = flag.Int("budget-nodes", 0, "abort a minimization beyond this many live BDD nodes, degrading to the best valid cover (0 = unbounded)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget per minimization, e.g. 500ms (0 = none)")
		netMode    = flag.Bool("network", false, "with -blif, optimize the whole netlist against windowed compatible don't cares instead of minimizing one node")
		netWindow  = flag.Int("window", 2, "with -network, fanin and fanout depth of each node's window")
		netSweeps  = flag.Int("sweeps", 4, "with -network, cap on convergence-loop sweeps")
		netBudget  = flag.Uint64("node-budget", 0, "with -network, cap each node's window work at this many BDD nodes made (0 = unbounded)")
		netOut     = flag.String("out", "", "with -network, write the optimized BLIF to this file")
	)
	flag.Parse()
	if *spec == "" && *plaFile == "" && *blifFile == "" {
		flag.Usage()
		os.Exit(2)
	}

	// The tracer fans out to every requested sink; nil when tracing is off,
	// which keeps the heuristics on their unobserved (allocation-free) path.
	var (
		metrics *obs.Metrics
		sinks   []obs.Tracer
	)
	if *trace {
		metrics = &obs.Metrics{}
		sinks = append(sinks, metrics, obs.NewProgress(os.Stderr))
	}
	if *traceOut != "" {
		jl, err := obs.CreateJSONL(*traceOut, *traceTimes)
		if err != nil {
			fail(err)
		}
		sinks = append(sinks, jl)
		defer func() {
			if err := jl.Close(); err != nil {
				fail(err)
			}
		}()
	}
	tracer := obs.Multi(sinks...)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	// mkBudget builds a fresh per-run kernel budget from the resource flags
	// (budgets carry per-run counters, so they are never shared across
	// workers); nil when no bound was requested keeps the unbudgeted path.
	mkBudget := func() *bdd.Budget {
		if *budgetN <= 0 && *timeout <= 0 {
			return nil
		}
		b := &bdd.Budget{MaxLiveNodes: *budgetN}
		if *timeout > 0 {
			b.Deadline = time.Now().Add(*timeout)
		}
		return b
	}

	if *netMode {
		runNetwork(*blifFile, *heuristic, *netWindow, *netSweeps, *netBudget, *timeout, *netOut, tracer)
		if metrics != nil {
			fmt.Println()
			metrics.Format(os.Stdout)
		}
		return
	}

	if *spec == "-" {
		runBatch(*heuristic, *all, *workersN, tracer, mkBudget)
		if metrics != nil {
			fmt.Println()
			metrics.Format(os.Stdout)
		}
		return
	}

	prob := loadProblem(*spec, *plaFile, *plaOutput, *blifFile, *nodeName)
	currentInput = prob.Label
	n := prob.Vars
	m, in, err := prob.NewManager()
	if err != nil {
		fail(err)
	}
	fmt.Printf("instance [f, c] over %d variables: %s\n", n, core.FormatSpec(m, in, n))
	fmt.Printf("|f| = %d nodes, c_onset = %.1f%%\n\n", m.Size(in.F), m.Density(in.C)*100)
	if g, ok := in.Trivial(m); ok {
		fmt.Printf("trivial instance: cover is the constant %v\n", g == bdd.One)
		return
	}

	var result bdd.Ref
	haveResult := false
	if *all {
		for _, r := range runAll(prob, *workersN, tracer, mkBudget, true) {
			fmt.Printf("  %-8s size %3d   %s%s\n", r.name, r.size, r.spec, degraded(r.ab))
		}
		// The DOT export needs a Ref on the main manager; recompute the
		// selected heuristic here (sizes are canonical either way).
		if h := core.ByName(*heuristic); h != nil && *dotFile != "" {
			result, _ = core.MinimizeAnytime(h, m, in.F, in.C, mkBudget())
			haveResult = true
		}
		fmt.Printf("  %-8s size %3d\n", "low_bd", core.LowerBound(m, in.F, in.C))
	} else {
		h := core.ByName(*heuristic)
		if h == nil {
			fmt.Fprintf(os.Stderr, "unknown heuristic %q\n", *heuristic)
			os.Exit(1)
		}
		g, ab := minimize(h, m, in, tracer, mkBudget(), prob.Label)
		fmt.Printf("  %-8s size %3d   %s%s\n", h.Name(), m.Size(g),
			core.FormatSpec(m, core.ISF{F: g, C: bdd.One}, n), degraded(ab))
		result, haveResult = g, true
	}
	if *exact {
		g, size := core.ExactMinimize(m, in.F, in.C, n)
		fmt.Printf("  %-8s size %3d   %s\n", "exact", size, core.FormatSpec(m, core.ISF{F: g, C: bdd.One}, n))
	}
	if metrics != nil {
		fmt.Println()
		metrics.Format(os.Stdout)
	}
	if *dotFile != "" && haveResult {
		f, err := os.Create(*dotFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := m.WriteDot(f, map[string]bdd.Ref{"f": in.F, "c": in.C, "min": result}); err != nil {
			fail(err)
		}
		fmt.Printf("DOT written to %s\n", *dotFile)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}
}

// loadProblem resolves the input flags into a parsed instance through the
// shared loader (the same one the bddmind server and corpus files use).
func loadProblem(spec, plaFile string, plaOutput int, blifFile, nodeName string) *problem.Problem {
	switch {
	case plaFile != "":
		currentInput = fmt.Sprintf("-pla %s -output %d", plaFile, plaOutput)
		src, err := os.ReadFile(plaFile)
		if err != nil {
			fail(err)
		}
		p, err := problem.ParsePLA(string(src), plaOutput, plaFile)
		if err != nil {
			fail(err)
		}
		return p
	case blifFile != "":
		currentInput = fmt.Sprintf("-blif %s", blifFile)
		src, err := os.ReadFile(blifFile)
		if err != nil {
			fail(err)
		}
		p, err := problem.ParseBLIF(string(src), nodeName, blifFile)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s: node %q against its observability don't cares\n", p.Network().Name, p.Node)
		return p
	}
	currentInput = fmt.Sprintf("-spec %q", spec)
	p, err := problem.FromSpec(spec)
	if err != nil {
		fail(err)
	}
	return p
}

// runBatch is `-spec -`: every stdin corpus line becomes one instance on a
// fresh manager, reported compactly. With all=true the full registry runs
// per instance through runAll, like -all on a single instance.
func runBatch(heuName string, all bool, workers int, tracer obs.Tracer, mkBudget func() *bdd.Budget) {
	probs, err := problem.LoadCorpus(os.Stdin, ".")
	if err != nil {
		fail(err)
	}
	h := core.ByName(heuName)
	if !all && h == nil {
		fmt.Fprintf(os.Stderr, "unknown heuristic %q\n", heuName)
		os.Exit(1)
	}
	for i, p := range probs {
		currentInput = p.Label
		m, in, err := p.NewManager()
		if err != nil {
			fail(err)
		}
		if g, ok := in.Trivial(m); ok {
			fmt.Printf("%3d  %-36s trivial: constant %v\n", i, p.Label, g == bdd.One)
			continue
		}
		var results []heuristicResult
		if all {
			results = runAll(p, workers, tracer, mkBudget, false)
		} else {
			g, ab := minimize(h, m, in, tracer, mkBudget(), p.Label)
			results = []heuristicResult{{name: h.Name(), size: m.Size(g), ab: ab}}
		}
		for _, r := range results {
			fmt.Printf("%3d  %-36s |f|=%4d  %-8s size %4d%s\n",
				i, p.Label, m.Size(in.F), r.name, r.size, degraded(r.ab))
		}
	}
}

// minimize runs h on the instance under budget b, traced into tracer, and
// exits on a result that is not a cover.
func minimize(h core.Minimizer, m *bdd.Manager, in core.ISF, tracer obs.Tracer, b *bdd.Budget, label string) (bdd.Ref, core.AbortInfo) {
	g, ab := core.MinimizeAnytime(core.Instrument(h, tracer), m, in.F, in.C, b)
	if !in.Cover(m, g) {
		fail(fmt.Errorf("BUG: %s returned a non-cover on %s", h.Name(), label))
	}
	return g, ab
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// degraded renders the budget-abort annotation for a report line, empty
// when the run completed within its budget.
func degraded(ab core.AbortInfo) string {
	if !ab.Aborted {
		return ""
	}
	return fmt.Sprintf("  [degraded: budget %s at %s]", ab.Reason, ab.Phase)
}

// heuristicResult is one heuristic's report line: the cover's size, its
// leaf-notation spec (when asked for) and the budget-abort annotation.
type heuristicResult struct {
	name string
	size int
	spec string
	ab   core.AbortInfo
}

// runAll is -all: it runs the registered heuristics on obs.RunOrdered's
// workers (workers <= 0 selects GOMAXPROCS), one fresh manager and one
// fresh budget per heuristic run, so no heuristic is charged for the nodes
// its predecessors left behind, and managers, which are not goroutine-safe,
// are never shared. Results and trace events come back in registry order
// whatever the worker count. withSpec renders each cover in leaf notation.
func runAll(prob *problem.Problem, workers int, tracer obs.Tracer, mkBudget func() *bdd.Budget, withSpec bool) []heuristicResult {
	heus := core.Registry()
	results := make([]heuristicResult, len(heus))
	obs.RunOrdered(len(heus), workers, tracer, func(i int, tr obs.Tracer) {
		m, in, err := prob.NewManager()
		if err != nil {
			fail(err)
		}
		g, ab := minimize(heus[i], m, in, tr, mkBudget(), prob.Label)
		results[i] = heuristicResult{name: heus[i].Name(), size: m.Size(g), ab: ab}
		if withSpec {
			results[i].spec = core.FormatSpec(m, core.ISF{F: g, C: bdd.One}, prob.Vars)
		}
	})
	return results
}
