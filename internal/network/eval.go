package network

import (
	"bddmin/internal/bdd"
	"bddmin/internal/logic"
)

// evaluator computes window functions on the window manager. A node's
// window function is its compiled local function composed onto its
// fanins' window functions, one ITE per list node, and each pass memoizes
// it per node index in a generation-stamped slice.
//
// The base pass binds boundary input k to variable x_k. A cone pass
// evaluates again only the nodes that can see the target, with the target
// bound to a forced constant or to its own (possibly rewritten) compiled
// function, and reads every other node's base value: a node that cannot
// see the target does not depend on it.
type evaluator struct {
	m  *bdd.Manager
	ix *index
	w  *window

	base, cone passMemo
	gen        uint32 // last generation handed to a pass
	force      bool   // the cone pass binds the target to forced
	forced     bdd.Ref
	args, tmp  []bdd.Ref
}

// passMemo is one pass's values: val[i] is node i's window function iff
// stamp[i] == gen.
type passMemo struct {
	val   []bdd.Ref
	stamp []uint32
	gen   uint32
}

// newEvaluator sizes an evaluator for networks of up to n nodes.
func newEvaluator(m *bdd.Manager, ix *index, w *window, n int) evaluator {
	return evaluator{
		m: m, ix: ix, w: w,
		base: passMemo{val: make([]bdd.Ref, n), stamp: make([]uint32, n)},
		cone: passMemo{val: make([]bdd.Ref, n), stamp: make([]uint32, n)},
	}
}

// startBase starts the window's base pass. The window manager must have
// been Reset for it; every earlier value is invalid.
func (e *evaluator) startBase() {
	e.gen++
	e.base.gen = e.gen
	e.args = e.args[:0]
	for k, i := range e.w.inputs {
		e.base.val[i], e.base.stamp[i] = e.m.MkVar(bdd.Var(k)), e.gen
	}
}

// coneOutputs evaluates the window outputs in a new cone pass, with the
// target bound to v when force is set.
func (e *evaluator) coneOutputs(v bdd.Ref, force bool) []bdd.Ref {
	e.gen++
	e.cone.gen = e.gen
	e.force, e.forced = force, v
	e.args = e.args[:0]
	outs := make([]bdd.Ref, len(e.w.outputs))
	for k, i := range e.w.outputs {
		outs[k] = e.value(i, true)
	}
	return outs
}

// value returns node i's window function in the base pass, or in the
// current cone pass when cone is set.
func (e *evaluator) value(i int32, cone bool) bdd.Ref {
	cone = cone && e.w.sees[i] == e.w.gen
	p := &e.base
	if cone {
		p = &e.cone
	}
	if p.stamp[i] == p.gen {
		return p.val[i]
	}
	var r bdd.Ref
	switch nd := e.ix.nodes[i]; {
	case cone && e.force && i == e.w.target:
		r = e.forced
	case nd.Type == logic.Const:
		r = bdd.Zero
		if nd.Value {
			r = bdd.One
		}
	default:
		start := len(e.args)
		for _, j := range e.ix.fanin[i] {
			v := e.value(j, cone)
			e.args = append(e.args, v)
		}
		r = e.compose(e.ix.fn[i], e.args[start:])
		e.args = e.args[:start]
	}
	p.val[i], p.stamp[i] = r, p.gen
	return r
}

// compose rebuilds f on the window manager with fanin position p bound to
// args[p]: Shannon's expansion, one ITE per list node, children first.
func (e *evaluator) compose(f localFn, args []bdd.Ref) bdd.Ref {
	t := append(e.tmp[:0], bdd.One)
	for _, n := range f.nodes {
		t = append(t, e.m.ITE(args[n.Var], flatRef(t, n.High), flatRef(t, n.Low)))
	}
	e.tmp = t
	return flatRef(t, f.root)
}

// flatRef resolves a flat ref against the Refs built for its list.
func flatRef(t []bdd.Ref, r uint32) bdd.Ref {
	if r&1 == 1 {
		return t[r>>1].Not()
	}
	return t[r>>1]
}
