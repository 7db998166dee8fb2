package network

import (
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/logic"
)

// relationalCare is the window care set built as a relation and quantified:
// care(y) = ∃x [∧_j (y_j ≡ F_j(x)) ∧ ¬ODC(x)], with duplicated fanin
// nodes sharing the first position's y variable. It must run on m right
// after windowFlexibility, under the same Reset.
func relationalCare(m *bdd.Manager, w *window) bdd.Ref {
	nx := len(w.inputs)
	fanin := w.target.Fanin
	base := boundaryMemo(m, w)
	odc := bdd.One
	for _, o := range w.outputs {
		if o == w.target {
			odc = bdd.Zero
		}
	}
	if odc != bdd.Zero && len(w.outputs) > 0 {
		hi, lo := boundaryMemo(m, w), boundaryMemo(m, w)
		hi[w.target], lo[w.target] = bdd.One, bdd.Zero
		for _, o := range w.outputs {
			same := m.Xnor(logic.EvalBDD(m, o, nil, hi), logic.EvalBDD(m, o, nil, lo))
			odc = m.And(odc, same)
		}
	}
	care := odc.Not()
	yvar := make(map[*logic.Node]bdd.Var, len(fanin))
	for j, fi := range fanin {
		if _, dup := yvar[fi]; !dup {
			yvar[fi] = bdd.Var(nx + j)
		}
		fj := logic.EvalBDD(m, fi, nil, base)
		care = m.And(care, m.Xnor(m.MkVar(yvar[fi]), fj))
	}
	xs := make([]bdd.Var, nx)
	for i := range xs {
		xs[i] = bdd.Var(i)
	}
	return m.Exists(care, m.CubeVars(xs...))
}

// TestWindowCareMatchesRelation replays sweep 1 of Optimize on three suite
// machines. Every window the sweep optimizes must get the same care set
// from windowFlexibility's range as from the relational image; the window
// is then optimized as the sweep would, so later windows see the rewritten
// network.
func TestWindowCareMatchesRelation(t *testing.T) {
	for _, name := range []string{"tlc", "s386", "styr"} {
		t.Run(name, func(t *testing.T) {
			net := suiteNet(t, name)
			opts := Options{}.withDefaults()
			m := bdd.New(0)
			fanouts, roots := fanoutMap(net), rootSet(net)
			windows, partial, rewrites := 0, 0, 0
			for _, nd := range topoOrder(net) {
				if nd.Type == logic.Input || nd.Type == logic.Const || len(nd.Fanin) == 0 {
					continue
				}
				w := buildWindow(net, fanouts, roots, nd, opts.FaninLevels, opts.FanoutLevels)
				if len(w.inputs) > opts.MaxWindowInputs {
					continue
				}
				m.Reset(len(w.inputs) + len(nd.Fanin))
				got := windowFlexibility(m, w).care
				if want := relationalCare(m, w); got != want {
					t.Fatalf("node %s: range care set differs from the relational image", nd.Name)
				}
				windows++
				if got != bdd.One && got != bdd.Zero {
					partial++
				}
				if optimizeNode(m, w, opts).accepted {
					rewrites++
					fanouts = fanoutMap(net)
				}
			}
			if windows == 0 || partial == 0 || rewrites == 0 {
				t.Fatalf("%d windows, %d with a partial care set, %d rewrites: the check saw nothing", windows, partial, rewrites)
			}
			t.Logf("%d windows, %d with a partial care set, %d rewrites", windows, partial, rewrites)
		})
	}
}
