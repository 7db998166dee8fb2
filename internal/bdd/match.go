package bdd

// Match kernels for the minimization framework's pair tests.
//
// The matching criteria of the paper (Definition 5) reduce to emptiness
// questions about products of XORs and care functions. Building those
// products with ITE materializes BDD nodes that are discarded immediately
// after a sign test — prohibitive inside the O(n²) matching-graph loops of
// level matching. The kernels below answer the questions directly: a
// multi-operand recursion over the operand cofactors that creates no nodes,
// exits as soon as a witness is found, and memoizes its boolean verdict in
// the computed cache (encoded as the constant Refs One/Zero), so repeated
// pair tests over shared subgraphs are answered in O(1).

// MatchOSM reports whether [f1, c1] OSM-matches [f2, c2] (Definition 5):
// the functions agree wherever the first cares, (f1⊕f2)·c1 = 0, and the
// first's don't-care set contains the second's, c1 ≤ c2. The test builds
// no BDD nodes.
func (m *Manager) MatchOSM(f1, c1, f2, c2 Ref) bool {
	m.checkRef(f1)
	m.checkRef(c1)
	m.checkRef(f2)
	m.checkRef(c2)
	m.growSigMemo()
	return m.xorCareZero(f1, f2, c1) && m.leq(c1, c2)
}

// MatchTSM reports whether [f1, c1] TSM-matches [f2, c2] (Definition 5):
// the functions agree wherever both care, (f1⊕f2)·c1·c2 = 0. The test is
// symmetric and builds no BDD nodes.
func (m *Manager) MatchTSM(f1, c1, f2, c2 Ref) bool {
	m.checkRef(f1)
	m.checkRef(c1)
	m.checkRef(f2)
	m.checkRef(c2)
	m.growSigMemo()
	return m.xorProdZero(f1, f2, c1, c2)
}

// xorCareZero reports (f ⊕ g)·c = 0: f and g agree on all of c. This is
// the OSM kernel's agreement half and the reduced form of the TSM kernel
// once one care operand is exhausted.
func (m *Manager) xorCareZero(f, g, c Ref) bool {
	if f == g || c == Zero {
		return true
	}
	if f == g.Not() {
		// The XOR is the constant One and c is nonzero.
		return false
	}
	// A constant operand collapses the XOR to a single function (or its
	// complement); delegate to the two-operand emptiness test.
	if f == One {
		return m.disjoint(g.Not(), c)
	}
	if f == Zero {
		return m.disjoint(g, c)
	}
	if g == One {
		return m.disjoint(f.Not(), c)
	}
	if g == Zero {
		return m.disjoint(f, c)
	}
	if c == One {
		// Distinct non-constant canonical refs denote distinct functions.
		return false
	}
	// A signature lane with f ≠ g inside the care set refutes the match
	// outright — per-node signatures are memoized across queries, so this
	// costs three array reads on the warm path.
	if m.sigRefuteXor(f, g, c) {
		return false
	}
	// The budget check sits past the constant exits and the signature
	// refutation: most calls in a sig-pruned pair loop never reach it, so
	// the unbudgeted kernels stay at their measured cost while real
	// recursions remain cancellable.
	if m.budget != nil {
		m.budgetStep()
	}
	// Canonicalize: ⊕ is symmetric and invariant under complementing both
	// operands, so order by node and strip f's complement bit.
	if g.Regular() < f.Regular() {
		f, g = g, f
	}
	if f.IsComplement() {
		f, g = f.Not(), g.Not()
	}
	if r, ok := m.cache.lookup(opMatchXor, f, g, c, 0); ok {
		return r == One
	}
	top := m.Level(f)
	if l := m.Level(g); l < top {
		top = l
	}
	if l := m.Level(c); l < top {
		top = l
	}
	fT, fE := m.branches(f, top)
	gT, gE := m.branches(g, top)
	cT, cE := m.branches(c, top)
	res := m.xorCareZero(fT, gT, cT) && m.xorCareZero(fE, gE, cE)
	m.cache.insert(opMatchXor, f, g, c, 0, boolRef(res))
	return res
}

// xorProdZero reports (f ⊕ g)·c1·c2 = 0, the TSM match condition. A
// constant XOR operand is collapsed to the canonical degenerate pair
// (h, Zero), which tests the plain product h·c1·c2 = 0.
func (m *Manager) xorProdZero(f, g, c1, c2 Ref) bool {
	if f == g || c1 == Zero || c2 == Zero {
		return true
	}
	if f == g.Not() {
		// XOR is the constant One: the care sets must not intersect.
		return m.disjoint(c1, c2)
	}
	switch {
	case f == One:
		f, g = g.Not(), Zero
	case f == Zero:
		f, g = g, Zero
	case g == One:
		f, g = f.Not(), Zero
	}
	if c1 == c2.Not() {
		return true
	}
	if c1 == One || c1 == c2 {
		return m.xorCareZero(f, g, c2)
	}
	if c2 == One {
		return m.xorCareZero(f, g, c1)
	}
	// A signature lane with f ≠ g where both care refutes the match
	// outright; see xorCareZero.
	if m.sigRefuteTSM(f, g, c1, c2) {
		return false
	}
	// Budget check past the cheap exits and the signature filter; see
	// xorCareZero.
	if m.budget != nil {
		m.budgetStep()
	}
	// Canonicalize both symmetric pairs. The degenerate (h, Zero) form is
	// left alone: its XOR side is a single function whose phase matters.
	if g != Zero {
		if g.Regular() < f.Regular() {
			f, g = g, f
		}
		if f.IsComplement() {
			f, g = f.Not(), g.Not()
		}
	}
	if c2 < c1 {
		c1, c2 = c2, c1
	}
	if r, ok := m.cache.lookup(opMatchTSM, f, g, c1, c2); ok {
		return r == One
	}
	top := m.Level(f)
	if l := m.Level(g); l < top {
		top = l
	}
	if l := m.Level(c1); l < top {
		top = l
	}
	if l := m.Level(c2); l < top {
		top = l
	}
	fT, fE := m.branches(f, top)
	gT, gE := m.branches(g, top)
	c1T, c1E := m.branches(c1, top)
	c2T, c2E := m.branches(c2, top)
	res := m.xorProdZero(fT, gT, c1T, c2T) && m.xorProdZero(fE, gE, c1E, c2E)
	m.cache.insert(opMatchTSM, f, g, c1, c2, boolRef(res))
	return res
}
