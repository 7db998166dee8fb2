// Package fsm compiles sequential logic networks into symbolic finite
// state machines and checks machine equivalence by breadth-first symbolic
// reachability of the product machine, the application that drives the
// paper's experiments (the SIS command verify_fsm -m product, after Touati
// et al., ICCAD 1990).
//
// At every BFS iteration the frontier set U may be replaced by any set S
// with U ⊆ S ⊆ R (re-exploring reached states is harmless): the traversal
// minimizes the incompletely specified function [U, U + ¬R] and this is
// where the minimization heuristics of package core are exercised. The
// Minimize hook of Options lets the experiment harness intercept each
// call, exactly as the paper instruments SIS.
package fsm

import (
	"fmt"

	"bddmin/internal/bdd"
	"bddmin/internal/logic"
)

// Machine is a symbolic FSM: next-state and output functions over input
// variables and present-state variables of a shared Manager.
type Machine struct {
	Name string
	// InputVars are the primary-input variables, shared with any machine
	// in the same product.
	InputVars []bdd.Var
	// StateVars and NextVars are the per-latch present and next state
	// variables; NextVars[i] is the variable immediately below
	// StateVars[i]. Images come out over StateVars; NextVars name the
	// next state in a transition relation y_i ≡ δ_i built from Next.
	StateVars []bdd.Var
	NextVars  []bdd.Var
	// Next[i] is the next-state function of latch i over (inputs, state).
	Next []bdd.Ref
	// Outputs are the output functions over (inputs, state).
	Outputs []bdd.Ref
	// Init is the characteristic cube of the single reset state.
	Init bdd.Ref
}

// VarBlocks assigns BDD variables for one or two machines sharing inputs:
// input variables first, then for each latch index the (present, next)
// pairs of every machine, interleaved machine-by-machine. Interleaving
// corresponding latches of the two product components keeps equality
// relations between the copies small, the standard ordering for
// self-product equivalence checks.
type VarBlocks struct {
	Inputs []bdd.Var
	// PerMachine[k][i] is the (present, next) variable pair of machine
	// k's latch i.
	PerMachine [][2][]bdd.Var
}

// AllocateVars lays out variables in m (which must be fresh) for machines
// with the given latch counts, sharing numInputs inputs.
func AllocateVars(m *bdd.Manager, numInputs int, latchCounts ...int) VarBlocks {
	vb := VarBlocks{}
	for i := 0; i < numInputs; i++ {
		vb.Inputs = append(vb.Inputs, m.AddVar())
	}
	maxL := 0
	for _, lc := range latchCounts {
		if lc > maxL {
			maxL = lc
		}
		vb.PerMachine = append(vb.PerMachine, [2][]bdd.Var{})
	}
	for i := 0; i < maxL; i++ {
		for k, lc := range latchCounts {
			if i >= lc {
				continue
			}
			present := m.AddVar()
			next := m.AddVar()
			vb.PerMachine[k][0] = append(vb.PerMachine[k][0], present)
			vb.PerMachine[k][1] = append(vb.PerMachine[k][1], next)
		}
	}
	return vb
}

// Compile builds the symbolic machine for net using the variables of
// block k in vb. Input variables are named after the network's inputs.
func Compile(m *bdd.Manager, net *logic.Network, vb VarBlocks, k int) (*Machine, error) {
	if len(vb.Inputs) != net.PrimaryInputCount() {
		return nil, fmt.Errorf("fsm: %s has %d inputs, blocks provide %d",
			net.Name, net.PrimaryInputCount(), len(vb.Inputs))
	}
	present := vb.PerMachine[k][0]
	next := vb.PerMachine[k][1]
	if len(present) != net.LatchCount() {
		return nil, fmt.Errorf("fsm: %s has %d latches, blocks provide %d",
			net.Name, net.LatchCount(), len(present))
	}
	env := logic.Env{}
	for i, in := range net.Inputs {
		env[in] = m.MkVar(vb.Inputs[i])
		m.SetVarName(vb.Inputs[i], in.Name)
	}
	for i, l := range net.Latches {
		env[l.Output] = m.MkVar(present[i])
		m.SetVarName(present[i], fmt.Sprintf("%s.%s", net.Name, l.Name))
		m.SetVarName(next[i], fmt.Sprintf("%s.%s'", net.Name, l.Name))
	}
	memo := make(map[*logic.Node]bdd.Ref)
	mach := &Machine{
		Name:      net.Name,
		InputVars: vb.Inputs,
		StateVars: present,
		NextVars:  next,
	}
	for _, l := range net.Latches {
		mach.Next = append(mach.Next, logic.EvalBDD(m, l.Input, env, memo))
	}
	for _, o := range net.Outputs {
		mach.Outputs = append(mach.Outputs, logic.EvalBDD(m, o, env, memo))
	}
	init := bdd.One
	for i := len(net.Latches) - 1; i >= 0; i-- {
		v := m.MkVar(present[i])
		if !net.Latches[i].Init {
			v = v.Not()
		}
		init = m.And(init, v)
	}
	mach.Init = init
	return mach, nil
}
