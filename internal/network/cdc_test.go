package network

import (
	"slices"
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/logic"
)

// mapWindow is a window cut by buildWindow, the map-based cut that the
// indexed window.cut replaced: the oracle of its inputs and outputs.
type mapWindow struct {
	inputs, outputs []*logic.Node
}

// fanoutMap indexes every node's consumers.
func fanoutMap(net *logic.Network) map[*logic.Node][]*logic.Node {
	fo := make(map[*logic.Node][]*logic.Node, net.NodeCount())
	for _, nd := range net.Nodes() {
		for _, fi := range nd.Fanin {
			fo[fi] = append(fo[fi], nd)
		}
	}
	return fo
}

// rootSet marks the network's observables.
func rootSet(net *logic.Network) map[*logic.Node]bool {
	roots := make(map[*logic.Node]bool, len(net.Outputs)+len(net.Latches))
	for _, o := range net.Outputs {
		roots[o] = true
	}
	for _, l := range net.Latches {
		roots[l.Input] = true
	}
	return roots
}

// buildWindow cuts the target's window with Go maps and scans of the whole
// network, in network node order.
func buildWindow(net *logic.Network, fanouts map[*logic.Node][]*logic.Node,
	roots map[*logic.Node]bool, target *logic.Node, faninLevels, fanoutLevels int) mapWindow {

	var w mapWindow
	member := map[*logic.Node]bool{target: true}
	frontier := []*logic.Node{target}
	for depth := 0; depth < fanoutLevels && len(frontier) > 0; depth++ {
		var next []*logic.Node
		for _, nd := range frontier {
			for _, consumer := range fanouts[nd] {
				if !member[consumer] {
					member[consumer] = true
					next = append(next, consumer)
				}
			}
		}
		frontier = next
	}
	frontier = frontier[:0]
	for _, nd := range net.Nodes() {
		if member[nd] {
			frontier = append(frontier, nd)
		}
	}
	for depth := 0; depth < faninLevels && len(frontier) > 0; depth++ {
		var next []*logic.Node
		for _, nd := range frontier {
			for _, fi := range nd.Fanin {
				if !member[fi] {
					member[fi] = true
					next = append(next, fi)
				}
			}
		}
		frontier = next
	}

	seenInput := make(map[*logic.Node]bool)
	addInput := func(nd *logic.Node) {
		if !seenInput[nd] {
			seenInput[nd] = true
			w.inputs = append(w.inputs, nd)
		}
	}
	for _, nd := range net.Nodes() {
		if !member[nd] {
			continue
		}
		if nd.Type == logic.Input {
			addInput(nd)
			continue
		}
		for _, fi := range nd.Fanin {
			if member[fi] {
				continue
			}
			if fi.Type == logic.Const {
				member[fi] = true
				continue
			}
			addInput(fi)
		}
	}

	sees := map[*logic.Node]bool{target: true}
	var canSee func(nd *logic.Node) bool
	canSee = func(nd *logic.Node) bool {
		if v, ok := sees[nd]; ok {
			return v
		}
		sees[nd] = false // cycle guard; networks are acyclic anyway
		v := false
		if member[nd] && !seenInput[nd] {
			for _, fi := range nd.Fanin {
				if canSee(fi) {
					v = true
					break
				}
			}
		}
		sees[nd] = v
		return v
	}
	for _, nd := range net.Nodes() {
		if !member[nd] || nd.Type == logic.Input || nd.Type == logic.Const || !canSee(nd) {
			continue
		}
		escapes := roots[nd]
		if !escapes {
			for _, consumer := range fanouts[nd] {
				if !member[consumer] {
					escapes = true
					break
				}
			}
		}
		if escapes {
			w.outputs = append(w.outputs, nd)
		}
	}
	return w
}

// nodesOf maps indices of o's sweep to their nodes.
func nodesOf(o *optimizer, idx []int32) []*logic.Node {
	nodes := make([]*logic.Node, len(idx))
	for k, i := range idx {
		nodes[k] = o.ix.nodes[i]
	}
	return nodes
}

// boundaryMemo is a fresh logic.EvalBDD memo holding the boundary binding
// of o's window: input k evaluates to variable x_k, and the recursion stops
// there.
func boundaryMemo(m *bdd.Manager, o *optimizer) map[*logic.Node]bdd.Ref {
	memo := make(map[*logic.Node]bdd.Ref, len(o.w.inputs))
	for k, nd := range nodesOf(o, o.w.inputs) {
		memo[nd] = m.MkVar(bdd.Var(k))
	}
	return memo
}

// checkEvaluator compares every window function windowFlexibility's
// evaluator built with logic.EvalBDD on a fresh memo: the window outputs
// and the target's fanins in the base pass, and the outputs with the
// target forced to One and to Zero in cone passes.
func checkEvaluator(t *testing.T, m *bdd.Manager, o *optimizer, fx flexibility) {
	t.Helper()
	outputs := nodesOf(o, o.w.outputs)
	target := o.ix.nodes[o.w.target]
	for k, nd := range outputs {
		if want := logic.EvalBDD(m, nd, nil, boundaryMemo(m, o)); fx.origOuts[k] != want {
			t.Fatalf("window of %s: output %s differs from EvalBDD", target.Name, nd.Name)
		}
	}
	for _, i := range o.ix.fanin[o.w.target] {
		nd := o.ix.nodes[i]
		if want := logic.EvalBDD(m, nd, nil, boundaryMemo(m, o)); o.ev.value(i, false) != want {
			t.Fatalf("window of %s: fanin %s differs from EvalBDD", target.Name, nd.Name)
		}
	}
	for _, v := range []bdd.Ref{bdd.One, bdd.Zero} {
		got := o.ev.coneOutputs(v, true)
		memo := boundaryMemo(m, o)
		memo[target] = v
		for k, nd := range outputs {
			if want := logic.EvalBDD(m, nd, nil, memo); got[k] != want {
				t.Fatalf("window of %s: output %s with the target forced to %v differs from EvalBDD", target.Name, nd.Name, v)
			}
		}
	}
}

// relationalCare is the window care set built as a relation and quantified:
// care(y) = ∃x [∧_j (y_j ≡ F_j(x)) ∧ ¬ODC(x)], with duplicated fanin
// nodes sharing the first position's y variable. It must run on m right
// after windowFlexibility, under the same Reset.
func relationalCare(m *bdd.Manager, o *optimizer) bdd.Ref {
	nx := len(o.w.inputs)
	target := o.ix.nodes[o.w.target]
	outputs := nodesOf(o, o.w.outputs)
	base := boundaryMemo(m, o)
	odc := bdd.One
	if slices.Contains(outputs, target) {
		odc = bdd.Zero
	}
	if odc != bdd.Zero && len(outputs) > 0 {
		hi, lo := boundaryMemo(m, o), boundaryMemo(m, o)
		hi[target], lo[target] = bdd.One, bdd.Zero
		for _, nd := range outputs {
			same := m.Xnor(logic.EvalBDD(m, nd, nil, hi), logic.EvalBDD(m, nd, nil, lo))
			odc = m.And(odc, same)
		}
	}
	care := odc.Not()
	yvar := make(map[*logic.Node]bdd.Var, len(target.Fanin))
	for j, fi := range target.Fanin {
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
// machines and checks every window three ways. The indexed cut must give
// the same inputs and outputs, in the same order, as buildWindow. Every
// window function the composing evaluator builds must equal logic.EvalBDD
// over the covers. And windowFlexibility's care set, the range of the
// constrained fanin vector, must equal the relational image. Each window is
// then optimized as the sweep would, so later windows see the rewritten
// network.
func TestWindowCareMatchesRelation(t *testing.T) {
	for _, name := range []string{"tlc", "s386", "styr"} {
		t.Run(name, func(t *testing.T) {
			net := suiteNet(t, name)
			opts := Options{}.withDefaults()
			o := newOptimizer(net, opts)
			m := o.m
			o.ix.number(net, o.local)
			fanouts, roots := fanoutMap(net), rootSet(net)
			windows, partial, rewrites := 0, 0, 0
			for _, i := range o.ix.topoOrder() {
				nd := o.ix.nodes[i]
				if !internal(nd) {
					continue
				}
				o.w.cut(&o.ix, i, opts.FaninLevels, opts.FanoutLevels)
				want := buildWindow(net, fanouts, roots, nd, opts.FaninLevels, opts.FanoutLevels)
				if !slices.Equal(nodesOf(o, o.w.inputs), want.inputs) || !slices.Equal(nodesOf(o, o.w.outputs), want.outputs) {
					t.Fatalf("node %s: indexed window differs from the map-based cut", nd.Name)
				}
				if len(nd.Fanin) == 0 || len(o.w.inputs) > opts.MaxWindowInputs {
					continue
				}
				m.Reset(len(o.w.inputs) + len(nd.Fanin))
				fx := o.windowFlexibility()
				checkEvaluator(t, m, o, fx)
				if fx.care != relationalCare(m, o) {
					t.Fatalf("node %s: range care set differs from the relational image", nd.Name)
				}
				windows++
				if fx.care != bdd.One && fx.care != bdd.Zero {
					partial++
				}
				if o.optimizeNode().accepted {
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
