package network

import (
	"bddmin/internal/bdd"
	"bddmin/internal/logic"
)

// Per-node don't-care approximation inside one window. All BDDs live on the
// run's manager, Reset for the window, with the variable order: the window's
// boundary variables x_0..x_{nx-1}, then one y variable per target fanin
// position (duplicate fanin nodes share the first position's variable).

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

// boundaryMemo seeds an evaluation memo with the boundary binding: window
// input i evaluates to variable x_i. Because logic.EvalBDD consults the
// memo before recursing, gate-typed boundary nodes stop the recursion at
// the window edge exactly like primary inputs do.
func boundaryMemo(m *bdd.Manager, w *window) map[*logic.Node]bdd.Ref {
	memo := make(map[*logic.Node]bdd.Ref, len(w.inputs))
	for i, nd := range w.inputs {
		memo[nd] = m.MkVar(bdd.Var(i))
	}
	return memo
}

// windowFlexibility computes the target's complete don't-care
// approximation in the window. It must run under a budget scope (every
// step is kernel work on m); on abort the caller skips the node.
func windowFlexibility(m *bdd.Manager, w *window) flexibility {
	nx := len(w.inputs)
	fanin := w.target.Fanin

	// Window outputs and fanin functions under the boundary binding. One
	// shared memo: the fanin cones and output cones overlap heavily.
	base := boundaryMemo(m, w)
	fx := flexibility{origOuts: make([]bdd.Ref, len(w.outputs))}
	for i, o := range w.outputs {
		fx.origOuts[i] = logic.EvalBDD(m, o, nil, base)
	}
	faninF := make([]bdd.Ref, len(fanin))
	for j, fi := range fanin {
		faninF[j] = logic.EvalBDD(m, fi, nil, base)
	}

	// ODC over x: outputs compared with the target forced to One and Zero.
	// A target that is itself a window output is directly observed — its
	// ODC is Zero without building the XNOR chain (same early exit as
	// logic.ObservabilityDC). An unobserved target (no window outputs) is
	// all don't care.
	odc := bdd.One
	for _, o := range w.outputs {
		if o == w.target {
			odc = bdd.Zero
			break
		}
	}
	if odc != bdd.Zero && len(w.outputs) > 0 {
		forced := func(v bdd.Ref) []bdd.Ref {
			memo := boundaryMemo(m, w)
			memo[w.target] = v
			outs := make([]bdd.Ref, len(w.outputs))
			for i, o := range w.outputs {
				outs[i] = logic.EvalBDD(m, o, nil, memo)
			}
			return outs
		}
		hi := forced(bdd.One)
		lo := forced(bdd.Zero)
		for i := range hi {
			odc = m.And(odc, m.Xnor(hi[i], lo[i]))
			if odc == bdd.Zero {
				break
			}
		}
	}

	// Local function over y. Duplicate fanin nodes share one variable and
	// enter the image once: their positions carry the same function.
	ymemo := make(map[*logic.Node]bdd.Ref, len(fanin))
	fx.yvar = make([]bdd.Var, len(fanin))
	var fs []bdd.Ref // one fanin function and y variable per fanin node
	var ys []bdd.Var
	for j, fi := range fanin {
		if r, dup := ymemo[fi]; dup {
			fx.yvar[j] = m.TopVar(r)
			continue
		}
		v := bdd.Var(nx + j)
		ymemo[fi] = m.MkVar(v)
		fx.yvar[j] = v
		fs = append(fs, faninF[j])
		ys = append(ys, v)
	}
	fx.floc = logic.EvalBDD(m, w.target, nil, ymemo)

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
	fx.care = m.Range(fs, ys)
	return fx
}
