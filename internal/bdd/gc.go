package bdd

// Protect registers f as an external root so that GC keeps its subgraph
// alive. Calls nest: each Protect must be matched by one Unprotect.
func (m *Manager) Protect(f Ref) Ref {
	m.checkRef(f)
	m.roots[f.Regular()]++
	return f
}

// Unprotect removes one protection count from f. It panics if f is not
// protected.
func (m *Manager) Unprotect(f Ref) {
	m.checkRef(f)
	r := f.Regular()
	n, ok := m.roots[r]
	if !ok {
		panic("bdd: Unprotect of unprotected Ref")
	}
	if n == 1 {
		delete(m.roots, r)
	} else {
		m.roots[r] = n - 1
	}
}

// GC reclaims every node unreachable from the protected roots and the
// additional extra roots, placing freed slots on an internal free list,
// rebuilding the unique table, and clearing the computed caches. Refs to
// collected nodes become invalid; callers are responsible for protecting
// everything they intend to keep.
//
// It returns the number of nodes collected.
func (m *Manager) GC(extra ...Ref) int {
	m.stGCRuns++
	// Mark through the shared generation-stamp scratch (stamp.go) with a
	// reusable explicit stack: the collector allocates nothing after
	// warm-up, which matters because the traversal loops of the experiment
	// harness collect every iteration.
	gen := m.newStamp()
	m.stamp[0] = gen // terminal
	stack := m.markBuf[:0]
	push := func(f Ref) {
		if idx := f.index(); m.stamp[idx] != gen {
			m.stamp[idx] = gen
			stack = append(stack, idx)
		}
	}
	for r := range m.roots {
		push(r)
	}
	for _, r := range extra {
		m.checkRef(r)
		push(r)
	}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &m.nodes[idx]
		push(n.high)
		push(n.low)
	}
	m.markBuf = stack[:0] // keep the grown capacity for the next walk
	// Sweep, recomputing the live count absolutely: slots freed by an
	// earlier collection and not yet reused are swept again here, so
	// decrementing per freed slot (as the code once did) would double-count
	// them and let the accounting drift below the true live population.
	liveBefore := m.live
	liveNow := 1 // terminal
	m.free = m.free[:0]
	for i := len(m.nodes) - 1; i >= 1; i-- {
		if m.stamp[i] == gen {
			liveNow++
		} else {
			m.free = append(m.free, uint32(i))
		}
	}
	m.live = liveNow
	m.rehash()
	m.cache.clear()
	m.invalidateSignatures() // freed slots may be rebuilt as new functions
	return liveBefore - liveNow
}

// GCRuns returns the number of garbage collections performed.
func (m *Manager) GCRuns() int { return m.stGCRuns }

// NumProtected returns the number of distinct protected roots. Tests use it
// to assert that aborted minimization runs leak no protections.
func (m *Manager) NumProtected() int { return len(m.roots) }
