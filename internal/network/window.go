package network

import (
	"slices"

	"bddmin/internal/logic"
)

// Window extraction: cut a k-level fanin/fanout environment out of the
// network around one target node. Everything outside the cut is abstracted
// away by treating the boundary signals as free variables — which can only
// shrink the don't-care set computed inside, keeping the approximation
// conservative (see the package comment).

// index numbers the network's nodes for one sweep: node i is
// net.Nodes()[i] when the sweep starts, and every per-node fact a window
// reads is a slice indexed by i. A rewrite updates its target's fanin and
// fn in place; RemoveDead invalidates the numbering, so each sweep numbers
// anew.
//
// fanout is not updated when a rewrite of t drops t's fanin j, and j keeps
// t as a consumer for the rest of the sweep. No later window reads that
// entry: a window reads the fanout lists of its target's transitive fanout
// only, and a target whose transitive fanout holds j lies in j's
// transitive fanin, so the topological sweep reached it before t.
type index struct {
	nodes []*logic.Node
	// fanin[i][p] is the index of node i's fanin at position p; fanout[i]
	// lists node i's consumers in node order, once per fanin edge.
	fanin, fanout [][]int32
	// root marks the observables: primary outputs and latch next-state
	// functions.
	root []bool
	// fn is each internal node's compiled local function.
	fn []localFn
}

// number indexes net's current nodes, taking each internal node's local
// function from local.
func (ix *index) number(net *logic.Network, local map[*logic.Node]localFn) {
	ix.nodes = net.Nodes()
	n := len(ix.nodes)
	pos := make(map[*logic.Node]int32, n)
	edges := 0
	for i, nd := range ix.nodes {
		pos[nd] = int32(i)
		edges += len(nd.Fanin)
	}
	ix.fanin = make([][]int32, n)
	ix.fanout = make([][]int32, n)
	ix.root = make([]bool, n)
	ix.fn = make([]localFn, n)
	// Both edge directions share one backing array each; fanout lists are
	// carved out by consumer count so each is filled in node order.
	fanins := make([]int32, 0, edges)
	consumers := make([]int, n)
	for i, nd := range ix.nodes {
		start := len(fanins)
		for _, fi := range nd.Fanin {
			j := pos[fi]
			fanins = append(fanins, j)
			consumers[j]++
		}
		ix.fanin[i] = fanins[start:len(fanins):len(fanins)]
		if internal(nd) {
			ix.fn[i] = local[nd]
		}
	}
	fanouts := make([]int32, edges)
	off := 0
	for j, c := range consumers {
		ix.fanout[j] = fanouts[off : off : off+c]
		off += c
	}
	for i, fin := range ix.fanin {
		for _, j := range fin {
			ix.fanout[j] = append(ix.fanout[j], int32(i))
		}
	}
	for _, o := range net.Outputs {
		ix.root[pos[o]] = true
	}
	for _, l := range net.Latches {
		ix.root[pos[l.Input]] = true
	}
}

// topoOrder returns the node indices fanin-first. Node order breaks ties,
// so the visiting order is deterministic.
func (ix *index) topoOrder() []int32 {
	order := make([]int32, 0, len(ix.nodes))
	visited := make([]bool, len(ix.nodes))
	var visit func(i int32)
	visit = func(i int32) {
		if visited[i] {
			return
		}
		visited[i] = true
		for _, j := range ix.fanin[i] {
			visit(j)
		}
		order = append(order, i)
	}
	for i := range ix.nodes {
		visit(int32(i))
	}
	return order
}

// window is one node's optimization environment, cut over the sweep's
// node indices. One window value serves a whole run: each cut advances gen
// and refills the slices in place.
type window struct {
	target int32
	// members are the window's nodes in index order, which is network node
	// order.
	members []int32
	// inputs are the boundary nodes, bound to the free variables
	// x_0..x_{len(inputs)-1} in this order: members in index order, a
	// member's non-member fanins in fanin order.
	inputs []int32
	// outputs are the member nodes whose value escapes the window — a
	// primary output, a latch's next-state function, or a node with a
	// consumer outside the member set — restricted to those that can see
	// the target (the others cannot change under any rewrite), in index
	// order.
	outputs []int32

	// Node i is a member, a boundary input, or can see the target through
	// members iff its stamp in member, input or sees equals gen.
	gen                 uint32
	member, input, sees []uint32
	frontier, next      []int32
}

// newWindow sizes a window's stamps for networks of up to n nodes.
func newWindow(n int) window {
	return window{member: make([]uint32, n), input: make([]uint32, n), sees: make([]uint32, n)}
}

// cut cuts the target's window: the transitive fanout of the target up to
// fanoutLevels, plus the transitive fanin of every collected node up to
// faninLevels, with boundary inputs and escaping outputs derived from the
// member set. Constant fanins are never boundary inputs (a constant made
// free would only lose precision); evaluation reads their value.
func (w *window) cut(ix *index, target int32, faninLevels, fanoutLevels int) {
	w.gen++
	w.target = target
	w.member[target] = w.gen
	w.members = append(w.members[:0], target)

	// Latches are a sequential boundary: fanouts never cross them (the
	// index holds combinational fanin edges only, so nothing to do).
	w.frontier = append(w.frontier[:0], target)
	w.expand(ix.fanout, fanoutLevels)
	w.frontier = append(w.frontier[:0], w.members...)
	w.expand(ix.fanin, faninLevels)
	slices.Sort(w.members)

	// Boundary inputs: Input-typed members (primary inputs, latch outputs)
	// and non-member fanins of members.
	w.inputs = w.inputs[:0]
	for _, i := range w.members {
		if ix.nodes[i].Type == logic.Input {
			w.addInput(i)
			continue
		}
		for _, j := range ix.fanin[i] {
			if w.member[j] != w.gen && ix.nodes[j].Type != logic.Const {
				w.addInput(j)
			}
		}
	}

	// The nodes that can see the target: the target and every member one
	// of whose fanins can see it, found forward along member consumers.
	w.sees[target] = w.gen
	w.frontier = append(w.frontier[:0], target)
	for len(w.frontier) > 0 {
		i := w.frontier[len(w.frontier)-1]
		w.frontier = w.frontier[:len(w.frontier)-1]
		for _, c := range ix.fanout[i] {
			if w.member[c] == w.gen && w.sees[c] != w.gen {
				w.sees[c] = w.gen
				w.frontier = append(w.frontier, c)
			}
		}
	}

	w.outputs = w.outputs[:0]
	for _, i := range w.members {
		if w.sees[i] == w.gen && (ix.root[i] || w.escapes(ix, i)) {
			w.outputs = append(w.outputs, i)
		}
	}
}

// expand adds up to depth levels of nodes along edges, breadth-first from
// the frontier, to the members.
func (w *window) expand(edges [][]int32, depth int) {
	for ; depth > 0 && len(w.frontier) > 0; depth-- {
		next := w.next[:0]
		for _, i := range w.frontier {
			for _, j := range edges[i] {
				if w.member[j] != w.gen {
					w.member[j] = w.gen
					w.members = append(w.members, j)
					next = append(next, j)
				}
			}
		}
		w.frontier, w.next = next, w.frontier
	}
}

func (w *window) addInput(i int32) {
	if w.input[i] != w.gen {
		w.input[i] = w.gen
		w.inputs = append(w.inputs, i)
	}
}

// escapes reports whether member i has a consumer outside the window.
func (w *window) escapes(ix *index, i int32) bool {
	for _, c := range ix.fanout[i] {
		if w.member[c] != w.gen {
			return true
		}
	}
	return false
}
