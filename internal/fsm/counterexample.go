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

// FindCounterexample runs the BFS product traversal keeping the frontier
// onion rings, and on encountering a reachable miscomparing state walks
// the rings backwards to extract a concrete distinguishing input
// sequence. It returns nil when the machines are equivalent (or the
// traversal was aborted by the bounds in opts — check the Result).
//
// The extraction needs the exact frontiers, so opts.Minimize is ignored:
// rings are the unminimized new-state sets.
func (p *Product) FindCounterexample(opts Options) (*Counterexample, Result) {
	m := p.M
	res := Result{Equal: true}
	reached := p.initial
	frontier := p.initial
	rings := []bdd.Ref{p.initial}
	protect := func(r bdd.Ref) bdd.Ref { m.Protect(r); return r }
	protect(reached)
	protect(frontier)
	defer func() {
		m.Unprotect(reached)
		m.Unprotect(frontier)
		for _, r := range rings {
			m.Unprotect(r)
		}
	}()
	protect(rings[0])

	badHere := func(set bdd.Ref) bdd.Ref { return m.And(set, p.bad) }
	if b := badHere(reached); b != bdd.Zero {
		res.Equal = false
		res.Reached = reached
		ce := p.extractTrace(rings, b)
		return ce, res
	}
	if b := opts.budget(); b != nil {
		prev := m.SetBudget(b)
		defer m.SetBudget(prev)
	}
	for frontier != bdd.Zero {
		if opts.MaxIterations > 0 && res.Iterations >= opts.MaxIterations {
			res.Aborted = true
			res.AbortReason = "iterations"
			break
		}
		// One BFS step under the kernel budget; see CheckEquivalence for
		// why an abort leaves the protected sets (and here, the rings)
		// valid.
		var bad bdd.Ref = bdd.Zero
		err := m.Budgeted(func() {
			res.Iterations++
			img := p.ImageFV(frontier, opts.OnConstrain)
			newFrontier := m.AndNot(img, reached)
			newReached := m.Or(reached, img)
			m.Unprotect(reached)
			m.Unprotect(frontier)
			reached, frontier = newReached, newFrontier
			m.Protect(reached)
			m.Protect(frontier)
			rings = append(rings, protect(frontier))
			bad = badHere(frontier)
		})
		if err != nil {
			res.Aborted = true
			res.AbortReason = abortReason(err)
			m.FlushCaches()
			break
		}
		if bad != bdd.Zero {
			res.Equal = false
			res.Reached = reached
			// Extraction must not be cut short by the traversal budget: the
			// counterexample is the whole point of the run, and its cost is
			// bounded by the rings already built. Run it unbudgeted.
			m.SetBudget(nil)
			ce := p.extractTrace(rings, bad)
			return ce, res
		}
	}
	res.Reached = reached
	nStateVars := len(p.A.StateVars) + len(p.B.StateVars)
	res.ReachedStates = m.SatCount(reached, nStateVars)
	return nil, res
}

// extractTrace walks the onion rings backwards from a set of bad states
// in the last ring, selecting at each step a concrete predecessor state
// and the input that drives it forward, then appends the input that
// exposes the output difference in the final state.
func (p *Product) extractTrace(rings []bdd.Ref, bad bdd.Ref) *Counterexample {
	m := p.M
	// Pick one bad state in the last ring; the backward walk mutates
	// target, so remember where the difference shows.
	badState := p.pickState(bad)
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
	xors := make([]bdd.Ref, len(p.A.Outputs))
	for i := range p.A.Outputs {
		xors[i] = m.Xor(p.A.Outputs[i], p.B.Outputs[i])
	}
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
