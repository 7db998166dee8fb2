package fsm

import (
	"strings"
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/circuits"
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
