package logic

import (
	"fmt"

	"bddmin/internal/bdd"
)

// Env maps the free nodes of a network — primary inputs and latch outputs —
// to BDD variables (or arbitrary functions, for composition).
type Env map[*Node]bdd.Ref

// EvalBDD computes the BDD of node nd under env, memoizing shared logic in
// memo (pass one map per network evaluation). It panics on an Input node
// absent from env.
func EvalBDD(m *bdd.Manager, nd *Node, env Env, memo map[*Node]bdd.Ref) bdd.Ref {
	if r, ok := memo[nd]; ok {
		return r
	}
	var r bdd.Ref
	switch nd.Type {
	case Input:
		v, ok := env[nd]
		if !ok {
			panic(fmt.Sprintf("logic: no environment binding for input %q", nd.Name))
		}
		r = v
	case Const:
		r = bdd.Zero
		if nd.Value {
			r = bdd.One
		}
	case Buf:
		r = EvalBDD(m, nd.Fanin[0], env, memo)
	case Not:
		r = EvalBDD(m, nd.Fanin[0], env, memo).Not()
	case And, Nand:
		r = bdd.One
		for _, fi := range nd.Fanin {
			r = m.And(r, EvalBDD(m, fi, env, memo))
		}
		if nd.Type == Nand {
			r = r.Not()
		}
	case Or, Nor:
		r = bdd.Zero
		for _, fi := range nd.Fanin {
			r = m.Or(r, EvalBDD(m, fi, env, memo))
		}
		if nd.Type == Nor {
			r = r.Not()
		}
	case Xor, Xnor:
		r = bdd.Zero
		for _, fi := range nd.Fanin {
			r = m.Xor(r, EvalBDD(m, fi, env, memo))
		}
		if nd.Type == Xnor {
			r = r.Not()
		}
	case Mux:
		sel := EvalBDD(m, nd.Fanin[0], env, memo)
		t := EvalBDD(m, nd.Fanin[1], env, memo)
		e := EvalBDD(m, nd.Fanin[2], env, memo)
		r = m.ITE(sel, t, e)
	case Table:
		// The row cubes are summed by OrN's balanced fold. A Table node
		// synthesized from a state table can hold hundreds of rows (scf's
		// widest has 182), and ORing each into one growing sum would walk
		// that sum once per row.
		cubes := make([]bdd.Ref, len(nd.Cover))
		for j, row := range nd.Cover {
			cube := bdd.One
			for i, c := range row {
				fi := EvalBDD(m, nd.Fanin[i], env, memo)
				switch c {
				case '1':
					cube = m.And(cube, fi)
				case '0':
					cube = m.And(cube, fi.Not())
				}
			}
			cubes[j] = cube
		}
		r = m.OrN(cubes...)
	default:
		panic(fmt.Sprintf("logic: cannot evaluate node type %v", nd.Type))
	}
	memo[nd] = r
	return r
}

// Simulate evaluates node nd on concrete values, memoizing in memo. The
// gate-level reference semantics used to cross-check the BDD compilation.
func Simulate(nd *Node, values map[*Node]bool, memo map[*Node]bool) bool {
	if v, ok := memo[nd]; ok {
		return v
	}
	var v bool
	switch nd.Type {
	case Input:
		val, ok := values[nd]
		if !ok {
			panic(fmt.Sprintf("logic: no value for input %q", nd.Name))
		}
		v = val
	case Const:
		v = nd.Value
	case Buf:
		v = Simulate(nd.Fanin[0], values, memo)
	case Not:
		v = !Simulate(nd.Fanin[0], values, memo)
	case And, Nand:
		v = true
		for _, fi := range nd.Fanin {
			v = v && Simulate(fi, values, memo)
		}
		if nd.Type == Nand {
			v = !v
		}
	case Or, Nor:
		v = false
		for _, fi := range nd.Fanin {
			v = v || Simulate(fi, values, memo)
		}
		if nd.Type == Nor {
			v = !v
		}
	case Xor, Xnor:
		v = false
		for _, fi := range nd.Fanin {
			v = v != Simulate(fi, values, memo)
		}
		if nd.Type == Xnor {
			v = !v
		}
	case Mux:
		if Simulate(nd.Fanin[0], values, memo) {
			v = Simulate(nd.Fanin[1], values, memo)
		} else {
			v = Simulate(nd.Fanin[2], values, memo)
		}
	case Table:
		for _, row := range nd.Cover {
			match := true
			for i, c := range row {
				fv := Simulate(nd.Fanin[i], values, memo)
				if (c == '1' && !fv) || (c == '0' && fv) {
					match = false
					break
				}
			}
			if match {
				v = true
				break
			}
		}
	default:
		panic(fmt.Sprintf("logic: cannot simulate node type %v", nd.Type))
	}
	memo[nd] = v
	return v
}

// StepState advances the sequential network one clock cycle from the given
// latch state under the given input values, returning the next state and
// the output values. State and inputs are indexed positionally.
func StepState(n *Network, state []bool, inputs []bool) (next []bool, outputs []bool) {
	if len(state) != len(n.Latches) || len(inputs) != len(n.Inputs) {
		panic("logic: StepState dimension mismatch")
	}
	values := make(map[*Node]bool, len(state)+len(inputs))
	for i, l := range n.Latches {
		values[l.Output] = state[i]
	}
	for i, in := range n.Inputs {
		values[in] = inputs[i]
	}
	memo := make(map[*Node]bool)
	next = make([]bool, len(n.Latches))
	for i, l := range n.Latches {
		next[i] = Simulate(l.Input, values, memo)
	}
	outputs = make([]bool, len(n.Outputs))
	for i, o := range n.Outputs {
		outputs[i] = Simulate(o, values, memo)
	}
	return next, outputs
}

// InitialState returns the latch reset vector.
func InitialState(n *Network) []bool {
	s := make([]bool, len(n.Latches))
	for i, l := range n.Latches {
		s[i] = l.Init
	}
	return s
}
