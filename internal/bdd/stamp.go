package bdd

// Generation-stamped visited sets.
//
// Every traversal that needs a per-node "seen" or memo table (support, size,
// reachability marking, density, GC marking, rehash dead-marking) shares a
// single per-Manager scratch array of uint32 generation stamps instead of
// allocating a fresh map per call. Starting a walk costs one counter bump
// (newStamp); membership is stamp[idx] == gen. The array grows with the
// arena and is reset only on the (rare) 32-bit generation wrap, so hot-path
// walks allocate nothing after warm-up.
//
// Walks never create nodes, so a single stamp generation stays valid for the
// whole traversal; nested walks are not supported (each walk calls newStamp
// and the previous generation's marks become stale), which matches how the
// analysis entry points are structured.

// newStamp starts a fresh traversal generation: it grows the stamp arrays to
// cover the current arena and variable count, bumps the generation counter,
// and returns the new generation value. The returned value is never zero.
func (m *Manager) newStamp() uint32 {
	if len(m.stamp) < len(m.nodes) {
		m.stamp = append(m.stamp, make([]uint32, len(m.nodes)-len(m.stamp))...)
	}
	if len(m.varStamp) < m.nvars {
		m.varStamp = append(m.varStamp, make([]uint32, m.nvars-len(m.varStamp))...)
	}
	m.stampGen++
	if m.stampGen == 0 {
		// Generation counter wrapped: stale stamps from 2^32 walks ago could
		// alias. Clear everything and restart at 1 (zero is never a valid
		// generation, so freshly grown array tails are always "unseen").
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		for i := range m.varStamp {
			m.varStamp[i] = 0
		}
		m.stampGen = 1
	}
	return m.stampGen
}

// appendReach appends the indexes of every nonterminal node reachable from f
// (through both phases) that is not yet stamped with gen, stamping as it
// goes. Callers pass a reusable buffer to keep traversals allocation-free.
func (m *Manager) appendReach(f Ref, gen uint32, out []uint32) []uint32 {
	idx := f.index()
	if idx == 0 || m.stamp[idx] == gen {
		return out
	}
	m.stamp[idx] = gen
	out = append(out, idx)
	n := &m.nodes[idx]
	out = m.appendReach(n.high, gen, out)
	return m.appendReach(n.low, gen, out)
}

// countReach counts the nonterminal nodes reachable from f that are not yet
// stamped with gen, stamping as it goes.
func (m *Manager) countReach(f Ref, gen uint32) int {
	idx := f.index()
	if idx == 0 || m.stamp[idx] == gen {
		return 0
	}
	m.stamp[idx] = gen
	n := &m.nodes[idx]
	return 1 + m.countReach(n.high, gen) + m.countReach(n.low, gen)
}
