package network

import (
	"slices"

	"bddmin/internal/bdd"
)

// Per-node don't-care approximation inside one window. All BDDs live on the
// run's window manager, Reset for the window, with the variable order: the
// window's boundary variables x_0..x_{nx-1}, then one y variable per target
// fanin position (duplicate fanin nodes share the first position's
// variable).

// flexibility is everything the substitution step needs: the node's local
// function and care set over the y variables, plus the window outputs'
// original functions over x (the post-substitution verification re-derives
// them and compares).
type flexibility struct {
	floc bdd.Ref // target's own gate/cover semantics over y
	care bdd.Ref // ∃x [∧_j (y_j ≡ F_j(x)) ∧ ¬ODC(x)], over y
	// origOuts are the window outputs under the boundary binding, in
	// w.outputs order — the baseline for the window equivalence re-check.
	origOuts []bdd.Ref
	// yvar maps each fanin position to its y variable.
	yvar []bdd.Var
}

// windowFlexibility computes the target's complete don't-care
// approximation in the window o.w on o.m, which must be Reset for the
// window. It must run under a budget scope (every step is kernel work on
// o.m); on abort the caller skips the node.
func (o *optimizer) windowFlexibility() flexibility {
	m, w, e := o.m, &o.w, &o.ev
	nx := len(w.inputs)
	fanin := o.ix.fanin[w.target]

	// Window outputs and fanin functions under the boundary binding, in
	// one base pass: the fanin cones and output cones overlap heavily.
	e.startBase()
	fx := flexibility{origOuts: make([]bdd.Ref, len(w.outputs))}
	for k, i := range w.outputs {
		fx.origOuts[k] = e.value(i, false)
	}
	faninF := make([]bdd.Ref, len(fanin))
	for j, i := range fanin {
		faninF[j] = e.value(i, false)
	}

	// ODC over x: outputs compared with the target forced to One and Zero.
	// A target that is itself a window output is directly observed — its
	// ODC is Zero without building the XNOR chain (same early exit as
	// logic.ObservabilityDC). An unobserved target (no window outputs) is
	// all don't care.
	odc := bdd.One
	if slices.Contains(w.outputs, w.target) {
		odc = bdd.Zero
	}
	if odc != bdd.Zero && len(w.outputs) > 0 {
		hi := e.coneOutputs(bdd.One, true)
		lo := e.coneOutputs(bdd.Zero, true)
		for k := range hi {
			odc = m.And(odc, m.Xnor(hi[k], lo[k]))
			if odc == bdd.Zero {
				break
			}
		}
	}

	// Local function over y: fanin position j is variable nx+j. Duplicate
	// fanin nodes share the first position's variable, as in the compiled
	// list, and enter the image once: their positions carry the same
	// function.
	fx.yvar = make([]bdd.Var, len(fanin))
	ys := make([]bdd.Ref, len(fanin))
	var fs []bdd.Ref // one fanin function and y variable per fanin node
	var vs []bdd.Var
	for j, i := range fanin {
		if first := slices.Index(fanin, i); first < j {
			fx.yvar[j] = fx.yvar[first]
			continue
		}
		fx.yvar[j] = bdd.Var(nx + j)
		ys[j] = m.MkVar(fx.yvar[j])
		fs = append(fs, faninF[j])
		vs = append(vs, fx.yvar[j])
	}
	fx.floc = e.compose(o.ix.fn[w.target], ys)

	// Image: a y point is a care point iff some observable boundary
	// assignment (¬ODC) produces it. Everything else — fanin combinations
	// no x reaches (window SDCs) or reached only where the window outputs
	// cannot see the target (ODC) — is free. It is computed as
	// bdd.Range(F↓¬ODC), the primitive fsm.ImageFV uses, which equals
	// ∃x [∧_j (y_j ≡ F_j(x)) ∧ ¬ODC(x)] by constrain's image property.
	if odc == bdd.One {
		fx.care = bdd.Zero
		return fx
	}
	for k, f := range fs {
		fs[k] = m.Constrain(f, odc.Not())
	}
	fx.care = m.Range(fs, vs)
	return fx
}
