package fsm

import (
	"fmt"
	"strings"

	"bddmin/internal/bdd"
)

// Counterexample is a distinguishing input sequence for two inequivalent
// machines: starting both at reset and applying Inputs step by step, the
// machines' outputs differ at the final step.
type Counterexample struct {
	// Inputs[t][i] is the value of primary input i at step t.
	Inputs [][]bool
}

// Length returns the number of steps.
func (ce *Counterexample) Length() int { return len(ce.Inputs) }

// String renders the sequence compactly, one step per line.
func (ce *Counterexample) String() string {
	var b strings.Builder
	for t, step := range ce.Inputs {
		fmt.Fprintf(&b, "step %d: ", t)
		for _, v := range step {
			if v {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FindCounterexample runs CheckEquivalence's BFS product traversal
// keeping the frontier onion rings, and on encountering a reachable
// miscomparing state walks the rings backwards to extract a concrete
// distinguishing input sequence. It returns nil when the machines are
// equivalent (or the traversal was aborted by the bounds in opts — check
// the Result).
//
// opts.Minimize is honored: the rings are the new-state sets, which do
// not depend on the cover of the frontier that was imaged.
func (p *Product) FindCounterexample(opts Options) (*Counterexample, Result) {
	m := p.M
	rings := []bdd.Ref{m.Protect(p.initial)}
	defer func() {
		for _, r := range rings {
			m.Unprotect(r)
		}
	}()
	res := p.traverse(opts, &rings)
	if res.Equal {
		return nil, res
	}
	// Extraction must not be cut short by a budget: the counterexample is
	// the whole point of the run, and its cost is bounded by the rings
	// already built. Run it unbudgeted.
	prev := m.SetBudget(nil)
	defer m.SetBudget(prev)
	return p.extractTrace(rings), res
}

// extractTrace builds the bad states of the last ring and walks the onion
// rings backwards from one of them, selecting at each step a concrete
// predecessor state and the input that drives it forward, then appends
// the input that exposes the output difference in the final state.
func (p *Product) extractTrace(rings []bdd.Ref) *Counterexample {
	m := p.M
	// The last ring's bad states, ∨_i ∃w. ring·(oA_i ⊕ oB_i).
	inputCube := m.CubeVars(p.A.InputVars...)
	xors := make([]bdd.Ref, len(p.A.Outputs))
	bad := make([]bdd.Ref, len(p.A.Outputs))
	for i := range p.A.Outputs {
		xors[i] = m.Xor(p.A.Outputs[i], p.B.Outputs[i])
		bad[i] = m.AndExists(rings[len(rings)-1], xors[i], inputCube)
	}
	// Pick one bad state in the last ring; the backward walk mutates
	// target, so remember where the difference shows.
	badState := p.pickState(m.OrN(bad...))
	target := badState
	depth := len(rings) - 1
	inputs := make([][]bool, 0, depth+1)
	for t := depth; t > 0; t-- {
		// Predecessors of target within ring t-1:
		// pre = { (w, x) : δ(w, x) = target }.
		agree := bdd.One
		for _, mc := range []*Machine{p.A, p.B} {
			for i, d := range mc.Next {
				if target[mc.StateVars[i]] {
					agree = m.And(agree, d)
				} else {
					agree = m.And(agree, d.Not())
				}
			}
		}
		pre := m.And(agree, rings[t-1])
		cube, ok := m.OneCube(pre)
		if !ok {
			panic("fsm: trace extraction lost the predecessor chain")
		}
		inputs = append(inputs, p.inputsFromCube(cube))
		target = p.stateFromCube(cube)
	}
	// Reverse into forward order.
	for i, j := 0, len(inputs)-1; i < j; i, j = i+1, j-1 {
		inputs[i], inputs[j] = inputs[j], inputs[i]
	}
	// Final step: an input showing the output difference at the bad state.
	show := m.And(m.OrN(xors...), p.stateCube(badState))
	cube, ok := m.OneCube(show)
	if !ok {
		panic("fsm: bad state does not expose an output difference")
	}
	inputs = append(inputs, p.inputsFromCube(cube))
	return &Counterexample{Inputs: inputs}
}

// stateValues maps each present-state variable to a concrete value.
type stateValues map[bdd.Var]bool

// pickState chooses one concrete product state from a nonempty set.
func (p *Product) pickState(set bdd.Ref) stateValues {
	cube, ok := p.M.OneCube(set)
	if !ok {
		panic("fsm: pickState on empty set")
	}
	return p.stateFromCube(cube)
}

func (p *Product) stateFromCube(cube []bdd.CubeValue) stateValues {
	sv := stateValues{}
	for _, mc := range []*Machine{p.A, p.B} {
		for _, v := range mc.StateVars {
			sv[v] = int(v) < len(cube) && cube[v] == bdd.CubeOne
		}
	}
	return sv
}

// stateCube builds the characteristic cube of a concrete state.
func (p *Product) stateCube(sv stateValues) bdd.Ref {
	m := p.M
	r := bdd.One
	for _, mc := range []*Machine{p.A, p.B} {
		for _, v := range mc.StateVars {
			lit := m.MkVar(v)
			if !sv[v] {
				lit = lit.Not()
			}
			r = m.And(r, lit)
		}
	}
	return r
}

// inputsFromCube extracts the primary-input values from a cube (absent
// inputs default to false).
func (p *Product) inputsFromCube(cube []bdd.CubeValue) []bool {
	out := make([]bool, len(p.A.InputVars))
	for i, v := range p.A.InputVars {
		out[i] = int(v) < len(cube) && cube[v] == bdd.CubeOne
	}
	return out
}
