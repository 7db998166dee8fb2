package logic

import "bddmin/internal/bdd"

// Static variable ordering. The minimization framework assumes a fixed
// order (as the paper does), but when a network is compiled to BDDs the
// choice of that fixed order decides whether the diagrams are linear or
// exponential — the classic example being a ripple-carry adder, linear
// with interleaved operands and exponential with the operands blocked.
// SuggestOrder implements the standard depth-first fanin ordering (after
// Malik et al. / Fujita et al.): walk the output cones depth-first and
// append each leaf (primary input or latch output) the first time it is
// reached, which naturally interleaves structurally related leaves.

// SuggestOrder returns the network's leaves — primary inputs and latch
// outputs — in depth-first fanin order from the outputs (then the latch
// inputs, so state logic is covered too). Leaves never reached by any
// cone are appended in declaration order.
func SuggestOrder(net *Network) []*Node {
	seen := make(map[*Node]bool)
	var order []*Node
	var walk func(nd *Node)
	walk = func(nd *Node) {
		if seen[nd] {
			return
		}
		seen[nd] = true
		if nd.Type == Input {
			order = append(order, nd)
			return
		}
		for _, fi := range nd.Fanin {
			walk(fi)
		}
	}
	for _, o := range net.Outputs {
		walk(o)
	}
	for _, l := range net.Latches {
		walk(l.Input)
	}
	for _, in := range net.Inputs {
		walk(in)
	}
	for _, l := range net.Latches {
		walk(l.Output)
	}
	return order
}

// DeclarationOrder returns the leaves in declaration order: primary
// inputs first, then latch outputs — the baseline SuggestOrder is
// measured against.
func DeclarationOrder(net *Network) []*Node {
	var order []*Node
	order = append(order, net.Inputs...)
	for _, l := range net.Latches {
		order = append(order, l.Output)
	}
	return order
}

// BuildOutputBDDs compiles the network's outputs (and latch next-state
// functions) into a fresh manager with the given leaf order and returns
// the manager, the output functions, and the shared node count — the
// figure of merit for comparing orders.
func BuildOutputBDDs(net *Network, order []*Node) (*bdd.Manager, []bdd.Ref, int) {
	m := bdd.New(len(order))
	env := Env{}
	for i, leaf := range order {
		env[leaf] = m.MkVar(bdd.Var(i))
		m.SetVarName(bdd.Var(i), leaf.Name)
	}
	memo := make(map[*Node]bdd.Ref)
	var funcs []bdd.Ref
	for _, o := range net.Outputs {
		funcs = append(funcs, EvalBDD(m, o, env, memo))
	}
	for _, l := range net.Latches {
		funcs = append(funcs, EvalBDD(m, l.Input, env, memo))
	}
	return m, funcs, m.SharedSize(funcs...)
}

// CompareOrders builds the network under both the declaration order and
// the suggested DFS order and reports the shared BDD sizes (declaration,
// suggested). Useful for deciding whether re-ordering is worth it before
// long runs.
func CompareOrders(net *Network) (declSize, dfsSize int) {
	_, _, declSize = BuildOutputBDDs(net, DeclarationOrder(net))
	_, _, dfsSize = BuildOutputBDDs(net, SuggestOrder(net))
	return declSize, dfsSize
}
