package core_test

import (
	"fmt"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
	"bddmin/internal/obs"
)

// The paper's first worked counterexample (Section 3.2): constrain
// increases the size of f, while the exact minimum is smaller; osm_td and
// tsm_td both find it.
func Example() {
	m := bdd.New(2)
	in := core.MustParseSpec(m, "d1 01")
	fmt.Println("|f| =", m.Size(in.F))

	g := m.Constrain(in.F, in.C)
	fmt.Println("constrain:", core.FormatSpec(m, core.ISF{F: g, C: bdd.One}, 2), "size", m.Size(g))

	_, best := core.ExactMinimize(m, in.F, in.C, 2)
	fmt.Println("exact minimum size:", best)

	safe := core.Minimize(m, in.F, in.C) // osm_bt with the |f| safeguard
	fmt.Println("core.Minimize size:", m.Size(safe))
	// Output:
	// |f| = 2
	// constrain: 11 01 size 3
	// exact minimum size: 2
	// core.Minimize size: 2
}

// Every heuristic of the paper's Table 2/3 is a Minimizer with the
// paper's name.
func ExampleRegistry() {
	m := bdd.New(3)
	in := core.MustParseSpec(m, "1d d1 d0 0d")
	for _, h := range core.Registry() {
		g := h.Minimize(m, in.F, in.C)
		fmt.Printf("%s:%d ", h.Name(), m.Size(g))
	}
	fmt.Println()
	// Output:
	// const:2 restr:2 osm_td:2 osm_nv:2 osm_cp:2 osm_bt:2 tsm_td:3 tsm_cp:3 opt_lv:3
}

// The Section 3.4 scheduler composes the transformations window by
// window; its Trace field streams the schedule as typed events, here
// folded into the aggregated metrics sink (window count and per-step
// totals).
func ExampleScheduler() {
	m := bdd.New(4)
	in := core.MustParseSpec(m, "d101 1d01 10d0 011d")
	var metrics obs.Metrics
	s := &core.Scheduler{WindowSize: 2, SkipLevelMatching: true, Trace: &metrics}
	g := s.Minimize(m, in.F, in.C)
	fmt.Printf("%s: %d -> %d nodes over %d windows\n",
		s.Name(), m.Size(in.F), m.Size(g), metrics.Windows)
	for _, h := range metrics.Table() {
		fmt.Printf("%s: %d applications, %d accepted\n", h.Name, h.Applications, h.Accepted)
	}
	// Output:
	// sched_w2_s0_nolv: 7 -> 6 nodes over 2 windows
	// sib_osm: 2 applications, 2 accepted
	// sib_tsm: 2 applications, 2 accepted
}

// The matching criteria form a strength hierarchy with the Table 1
// properties.
func ExampleCriterion() {
	for _, cr := range core.Criteria() {
		fmt.Printf("%s reflexive=%v symmetric=%v transitive=%v\n",
			cr, cr.Reflexive(), cr.Symmetric(), cr.Transitive())
	}
	// Output:
	// osdm reflexive=false symmetric=false transitive=true
	// osm reflexive=true symmetric=false transitive=true
	// tsm reflexive=true symmetric=true transitive=false
}

// The cube lower bound of Section 4.1.1 certifies optimality
// when it meets a heuristic's result.
func ExampleLowerBound() {
	m := bdd.New(2)
	in := core.MustParseSpec(m, "d1 01")
	lb := core.LowerBound(m, in.F, in.C)
	g := core.NewSiblingHeuristic(core.OSM, false, false).Minimize(m, in.F, in.C)
	fmt.Printf("bound %d, osm_td %d, optimal: %v\n", lb, m.Size(g), lb == m.Size(g))
	// Output:
	// bound 2, osm_td 2, optimal: true
}
