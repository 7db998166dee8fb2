package fsm

import (
	"strings"
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/circuits"
	"bddmin/internal/core"
	"bddmin/internal/logic"
)

// replayDistinguishes simulates both machines on the counterexample and
// reports whether some output differs at the final step — the ground-truth
// check that the extracted trace is genuine.
func replayDistinguishes(a, b *logic.Network, ce *Counterexample) bool {
	sa, sb := logic.InitialState(a), logic.InitialState(b)
	for t, in := range ce.Inputs {
		last := t == len(ce.Inputs)-1
		var oa, ob []bool
		na, oa := logic.StepState(a, sa, in)
		nb, ob := logic.StepState(b, sb, in)
		if last {
			for i := range oa {
				if oa[i] != ob[i] {
					return true
				}
			}
			return false
		}
		sa, sb = na, nb
	}
	return false
}

func TestCounterexampleToggle(t *testing.T) {
	a := toggleNet(t, false)
	b := toggleNet(t, true)
	m := bdd.New(0)
	p, err := NewProduct(m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ce, res := p.FindCounterexample(Options{})
	if res.Equal || ce == nil {
		t.Fatal("expected a counterexample")
	}
	if !replayDistinguishes(a, b, ce) {
		t.Fatalf("trace does not distinguish the machines:\n%s", ce)
	}
}

func TestCounterexampleDeepDivergence(t *testing.T) {
	// Counters diverging at the terminal count: the trace must be at
	// least as long as the distance to the divergence.
	a, bn := enabledCounter(4, false), enabledCounter(4, true)
	m := bdd.New(0)
	p, err := NewProduct(m, a, bn)
	if err != nil {
		t.Fatal(err)
	}
	ce, res := p.FindCounterexample(Options{})
	if res.Equal || ce == nil {
		t.Fatal("expected a counterexample")
	}
	// The difference needs the state 1111, reachable only after 15
	// enabled steps; the trace visits it at the final step.
	if ce.Length() < 16 {
		t.Fatalf("trace too short (%d steps) to reach the divergence", ce.Length())
	}
	if !replayDistinguishes(a, bn, ce) {
		t.Fatalf("trace does not distinguish the machines:\n%s", ce)
	}
}

func TestCounterexampleEquivalentMachines(t *testing.T) {
	net := circuits.TrafficLight()
	m := bdd.New(0)
	p, err := NewProduct(m, net, circuits.TrafficLight())
	if err != nil {
		t.Fatal(err)
	}
	ce, res := p.FindCounterexample(Options{})
	if !res.Equal || ce != nil {
		t.Fatal("equivalent machines must yield no counterexample")
	}
	if res.ReachedStates == 0 {
		t.Fatal("reached set must be reported")
	}
}

func TestCounterexampleStringFormat(t *testing.T) {
	ce := &Counterexample{Inputs: [][]bool{{true, false}, {false, true}}}
	s := ce.String()
	if !strings.Contains(s, "step 0: 10") || !strings.Contains(s, "step 1: 01") {
		t.Fatalf("format: %q", s)
	}
	if ce.Length() != 2 {
		t.Fatal("length")
	}
}

func TestCounterexampleRandomMutants(t *testing.T) {
	// Random machines with a mutated copy: every counterexample found
	// must replay correctly on the gate level.
	for seed := int64(30); seed < 36; seed++ {
		a := circuits.RandomControlFSM("a", seed, 5, 3, 2)
		b := circuits.RandomControlFSM("b", seed+100, 5, 3, 2)
		m := bdd.New(0)
		p, err := NewProduct(m, a, b)
		if err != nil {
			t.Fatal(err)
		}
		ce, res := p.FindCounterexample(Options{MaxIterations: 64})
		if res.Aborted {
			continue
		}
		if res.Equal {
			continue // different seeds can coincide behaviorally; fine
		}
		if ce == nil {
			t.Fatal("inequivalent without counterexample")
		}
		if !replayDistinguishes(a, b, ce) {
			t.Fatalf("seed %d: trace fails to distinguish", seed)
		}
	}
}

func TestCounterexampleBothEngines(t *testing.T) {
	// CheckEquivalence and FindCounterexample run the same image
	// computation, so they find a difference at the same BFS step, and the
	// trace is one input per step plus the one that shows the difference.
	pairs := [][2]*logic.Network{
		{toggleNet(t, false), toggleNet(t, true)},
		{enabledCounter(4, false), enabledCounter(4, true)},
	}
	for _, pair := range pairs {
		a, b := pair[0], pair[1]
		p, err := NewProduct(bdd.New(0), a, b)
		if err != nil {
			t.Fatal(err)
		}
		check := p.CheckEquivalence(Options{})
		p, err = NewProduct(bdd.New(0), a, b)
		if err != nil {
			t.Fatal(err)
		}
		ce, res := p.FindCounterexample(Options{})
		if check.Equal || res.Equal || ce == nil || !replayDistinguishes(a, b, ce) {
			t.Fatalf("%s/%s: bad counterexample", a.Name, b.Name)
		}
		if res.Iterations != check.Iterations || ce.Length() != check.Iterations+1 {
			t.Fatalf("%s/%s: CheckEquivalence stopped at step %d, FindCounterexample at %d with %d steps",
				a.Name, b.Name, check.Iterations, res.Iterations, ce.Length())
		}
	}
}

func TestCounterexampleHonorsOptions(t *testing.T) {
	// FindCounterexample runs CheckEquivalence's loop: with a frontier
	// minimizer other than constrain and a GC every iteration, both call
	// the minimizer and collect garbage as often, report the same verdict,
	// iterations, reached states, peak frontier and minimize calls, and
	// the rings still yield a replayable trace.
	pairs := [][2]*logic.Network{
		{toggleNet(t, false), toggleNet(t, true)},
		{enabledCounter(4, false), enabledCounter(4, true)},
		{circuits.TrafficLight(), circuits.TrafficLight()},
		{circuits.RandomControlFSM("a", 31, 5, 3, 2), circuits.RandomControlFSM("b", 131, 5, 3, 2)},
	}
	osmBT := core.ByName("osm_bt")
	hooked := 0
	opts := Options{
		Minimize: func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
			hooked++
			return osmBT.Minimize(m, f, c)
		},
		GCEvery: 1,
	}
	for _, pair := range pairs {
		a, b := pair[0], pair[1]
		p, err := NewProduct(bdd.New(0), a, b)
		if err != nil {
			t.Fatal(err)
		}
		hooked = 0
		check := p.CheckEquivalence(opts)
		checkHooked, checkGCs := hooked, p.M.GCRuns()
		p, err = NewProduct(bdd.New(0), a, b)
		if err != nil {
			t.Fatal(err)
		}
		hooked = 0
		ce, res := p.FindCounterexample(opts)
		if res.String() != check.String() || hooked != checkHooked || p.M.GCRuns() != checkGCs {
			t.Fatalf("%s/%s: FindCounterexample reports %q, %d minimizer calls, %d GCs; CheckEquivalence %q, %d, %d",
				a.Name, b.Name, res, hooked, p.M.GCRuns(), check, checkHooked, checkGCs)
		}
		if res.Iterations > 1 && hooked == 0 {
			t.Fatalf("%s/%s: no frontier minimization ran", a.Name, b.Name)
		}
		if res.Equal != (ce == nil) || (ce != nil && !replayDistinguishes(a, b, ce)) {
			t.Fatalf("%s/%s: equal %v, counterexample %v", a.Name, b.Name, res.Equal, ce)
		}
	}
}
