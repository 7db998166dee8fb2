// Command verifyfsm checks the equivalence of two finite state machines by
// symbolic breadth-first traversal of their product machine — the
// application the paper's experiments instrument (SIS's verify_fsm -m
// product, after Coudert et al. and Touati et al.).
//
// Machines come either from the built-in benchmark suite (-bench NAME,
// checked against itself, as in the paper) or from BLIF files (-a A.blif
// -b B.blif). The frontier-set minimization heuristic is selectable; the
// image is the range of the constrained next-state vector, as in SIS.
//
// -trace runs the same traversal keeping its onion rings (the new-state
// sets, which the frontier minimization does not change) and, on
// inequivalence, prints a distinguishing input sequence; the verdict line
// is the one the plain run prints.
//
// Resource bounds (-maxnodes, -timeout, -iters) are enforced inside the
// BDD kernels: a traversal that trips a bound stops mid-recursion, reports
// a structured inconclusive verdict with the abort reason, and exits with
// status 3. Internal panics are caught at the top level and reported with
// the offending input (exit status 2).
//
// Usage:
//
//	verifyfsm -bench tlc [-minimize osm_bt] [-iters N] [-maxnodes N]
//	          [-timeout D] [-trace]
//	verifyfsm -a left.blif -b right.blif
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/circuits"
	"bddmin/internal/core"
	"bddmin/internal/fsm"
	"bddmin/internal/logic"
)

// currentInput describes the machines being checked, for the top-level
// panic report.
var currentInput string

func main() {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "verifyfsm: internal error: %v\n", r)
			if currentInput != "" {
				fmt.Fprintf(os.Stderr, "verifyfsm: while checking %s\n", currentInput)
			}
			os.Exit(2)
		}
	}()
	run()
}

func run() {
	var (
		bench    = flag.String("bench", "", "benchmark name to check against itself (see -list)")
		list     = flag.Bool("list", false, "list benchmark names and exit")
		fileA    = flag.String("a", "", "left machine (BLIF)")
		fileB    = flag.String("b", "", "right machine (BLIF)")
		minimize = flag.String("minimize", "const", "frontier minimization heuristic")
		iters    = flag.Int("iters", 0, "max BFS iterations (0 = unbounded)")
		maxNodes = flag.Int("maxnodes", 0, "abort beyond this many live BDD nodes (0 = unbounded; enforced inside the kernels)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the traversal, e.g. 30s (0 = none)")
		trace    = flag.Bool("trace", false, "on inequivalence, print a distinguishing input sequence")
	)
	flag.Parse()
	if *list {
		for _, e := range circuits.Suite() {
			fmt.Printf("%-10s %-9s inputs %2d latches %2d (original: %2d/%2d)\n",
				e.Name, e.Kind, e.Inputs, e.Latches, e.OrigInputs, e.OrigLatches)
		}
		return
	}

	var netA, netB *logic.Network
	switch {
	case *bench != "":
		currentInput = fmt.Sprintf("-bench %s", *bench)
		info, err := circuits.ByName(*bench)
		if err != nil {
			fail(err)
		}
		netA, netB = info.Build(), info.Build()
	case *fileA != "" && *fileB != "":
		currentInput = fmt.Sprintf("-a %s -b %s", *fileA, *fileB)
		var err error
		if netA, err = parseFile(*fileA); err != nil {
			fail(err)
		}
		if netB, err = parseFile(*fileB); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	h := core.ByName(*minimize)
	if h == nil {
		fail(fmt.Errorf("unknown heuristic %q", *minimize))
	}
	opts := fsm.Options{
		MaxIterations: *iters,
		MaxNodes:      *maxNodes,
		GCEvery:       4,
		Minimize: func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
			return h.Minimize(m, f, c)
		},
	}
	if *timeout > 0 {
		opts.Deadline = time.Now().Add(*timeout)
	}
	m := bdd.New(0)
	p, err := fsm.NewProduct(m, netA, netB)
	if err != nil {
		fail(err)
	}
	var res fsm.Result
	if *trace {
		var ce *fsm.Counterexample
		ce, res = p.FindCounterexample(opts)
		if ce != nil {
			fmt.Printf("distinguishing input sequence (%d steps):\n%s", ce.Length(), ce)
		}
	} else {
		res = p.CheckEquivalence(opts)
	}
	fmt.Printf("%s vs %s: %s\n", netA.Name, netB.Name, res)
	fmt.Printf("manager: %d live nodes, %d GC runs\n", m.NumNodes(), m.GCRuns())
	if !res.Equal {
		os.Exit(1)
	}
	if res.Aborted {
		// Structured inconclusive report: the bound that fired, how far the
		// traversal got, and the best reached-set size it holds.
		fmt.Fprintf(os.Stderr, "verifyfsm: inconclusive: traversal aborted (%s) after %d iterations, %d-node reached set retained\n",
			res.AbortReason, res.Iterations, m.Size(res.Reached))
		os.Exit(3)
	}
}

func parseFile(path string) (*logic.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return logic.ParseBLIF(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
