// Quickstart: the paper's Figure 1 worked instance, end to end.
//
// An incompletely specified function [f, c] is built in the leaf notation
// of the paper, every heuristic of the framework is run on it, and the
// covers are compared against the brute-force exact minimum and the
// Theorem 7 cube lower bound. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
)

func main() {
	// Three variables; the annotated decision tree of Figure 1c: four of
	// the eight leaves are don't cares.
	m := bdd.New(3)
	in := core.MustParseSpec(m, "d1 0d d1 10")

	fmt.Println("=== Heuristic Minimization of BDDs Using Don't Cares: quickstart ===")
	fmt.Printf("instance [f, c] = %s\n", core.FormatSpec(m, in, 3))
	fmt.Printf("|f| = %d nodes; care set covers %.0f%% of the space\n\n",
		m.Size(in.F), m.Density(in.C)*100)

	// Run the paper's nine heuristics.
	fmt.Println("heuristic   size   cover (leaf values)")
	best := in.F
	for _, h := range core.Registry() {
		g := h.Minimize(m, in.F, in.C)
		if !in.Cover(m, g) {
			panic("heuristic returned a non-cover — file a bug")
		}
		fmt.Printf("  %-8s  %4d   %s\n", h.Name(), m.Size(g),
			core.FormatSpec(m, core.ISF{F: g, C: bdd.One}, 3))
		if m.Size(g) < m.Size(best) {
			best = g
		}
	}

	// The scheduler composes the transformations (Section 3.4).
	sched := &core.Scheduler{WindowSize: 1}
	g := sched.Minimize(m, in.F, in.C)
	fmt.Printf("  %-8s  %4d   %s\n", "sched", m.Size(g),
		core.FormatSpec(m, core.ISF{F: g, C: bdd.One}, 3))

	// Exact minimum (brute force over the 16 completions) and the
	// Theorem 7 lower bound.
	exact, size := core.ExactMinimize(m, in.F, in.C, 3)
	lb := core.LowerBound(m, in.F, in.C)
	fmt.Printf("\nexact minimum: %d nodes (%s); lower bound: %d\n",
		size, core.FormatSpec(m, core.ISF{F: exact, C: bdd.One}, 3), lb)
	fmt.Printf("best heuristic found %d nodes — %s\n", m.Size(best),
		verdict(m.Size(best), size))

	// The recommended one-call API: osm_bt with the |f| safeguard.
	g = core.Minimize(m, in.F, in.C)
	fmt.Printf("core.Minimize (osm_bt + safeguard): %d nodes\n", m.Size(g))

	// Render the instance and solution for inspection.
	if f, err := os.Create("quickstart.dot"); err == nil {
		defer f.Close()
		_ = m.WriteDot(f, map[string]bdd.Ref{"f": in.F, "c": in.C, "best": best})
		fmt.Println("wrote quickstart.dot (render with: dot -Tpng quickstart.dot)")
	}
}

func verdict(got, want int) string {
	if got == want {
		return "optimal"
	}
	return fmt.Sprintf("%d over optimal", got-want)
}
