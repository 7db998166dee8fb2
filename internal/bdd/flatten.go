package bdd

// FlatNode is one node of a flattened diagram (see Flatten): the variable
// it tests and its children as flat refs. A flat ref is 2*position, plus 1
// when the edge is complemented; position 0 is the terminal One and
// position p ≥ 1 is node p-1 of the list.
type FlatNode struct {
	Var       Var
	High, Low uint32
}

// Flatten lists the nodes of the shared diagram of fs in structural
// post-order — children before parents, high subtree first, roots in the
// order given — and returns each root as a flat ref. The list depends only
// on the functions, never on arena indexes, so the same functions flatten
// identically in any manager. WriteFunctions prints it, and a caller can
// rebuild a flattened function over any arguments with one ITE per node,
// in list order.
func (m *Manager) Flatten(fs ...Ref) (nodes []FlatNode, roots []uint32) {
	nodes = make([]FlatNode, 0, m.SharedSize(fs...)-1)
	gen := m.newStamp()
	if len(m.flatPos) < len(m.nodes) {
		m.flatPos = append(m.flatPos, make([]uint32, len(m.nodes)-len(m.flatPos))...)
	}
	roots = make([]uint32, len(fs))
	for i, f := range fs {
		nodes, roots[i] = m.flatten(f, gen, nodes)
	}
	return nodes, roots
}

// flatten appends the nodes below f not yet stamped with gen and returns
// f's flat ref. flatPos[0] is never written, so the terminal is position 0.
func (m *Manager) flatten(f Ref, gen uint32, out []FlatNode) ([]FlatNode, uint32) {
	idx := f.index()
	if idx != 0 && m.stamp[idx] != gen {
		m.stamp[idx] = gen
		n := &m.nodes[idx]
		var high, low uint32
		out, high = m.flatten(n.high, gen, out)
		out, low = m.flatten(n.low, gen, out)
		out = append(out, FlatNode{Var: Var(n.level), High: high, Low: low})
		m.flatPos[idx] = uint32(len(out))
	}
	return out, m.flatPos[idx]<<1 | uint32(f&1)
}
