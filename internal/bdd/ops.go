package bdd

// And returns the conjunction f·g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, Zero) }

// Or returns the disjunction f + g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, One, g) }

// Xor returns the exclusive or f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, g.Not(), g) }

// Xnor returns the equivalence f ≡ g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.ITE(f, g, g.Not()) }

// AndNot returns f·¬g, the difference of f and g.
func (m *Manager) AndNot(f, g Ref) Ref { return m.ITE(f, g.Not(), Zero) }

// AndN folds And over its arguments; AndN() is One.
func (m *Manager) AndN(fs ...Ref) Ref {
	r := One
	for _, f := range fs {
		r = m.And(r, f)
		if r == Zero {
			return Zero
		}
	}
	return r
}

// OrN returns the disjunction of its arguments; OrN() is Zero. It folds
// them as a balanced tree, ORing the sum of each half. A linear fold ORs
// every argument into one growing sum and so walks that sum again per
// argument; for a sum of many cubes nearly all of those nodes are garbage.
// The halves recurse on subslices: nothing is allocated and fs is left as
// it was.
func (m *Manager) OrN(fs ...Ref) Ref {
	switch len(fs) {
	case 0:
		return Zero
	case 1:
		m.checkRef(fs[0])
		return fs[0]
	}
	h := len(fs) / 2
	l := m.OrN(fs[:h]...)
	if l == One {
		return One
	}
	return m.Or(l, m.OrN(fs[h:]...))
}

// Leq reports whether f ≤ g pointwise, i.e. f implies g. This is the
// containment test used to verify covers of incompletely specified
// functions: g covers [f, c] iff f·c ≤ g ≤ f + ¬c.
func (m *Manager) Leq(f, g Ref) bool {
	m.checkRef(f)
	m.checkRef(g)
	m.growSigMemo()
	return m.leq(f, g)
}

func (m *Manager) leq(f, g Ref) bool {
	if f == g || f == Zero || g == One {
		return true
	}
	// A signature lane with f true and g false is a concrete assignment
	// refuting containment — no recursion, no cache traffic.
	if m.sigRefuteLeq(f, g) {
		return false
	}
	// f ≤ g  ⇔  f·¬g = 0.
	return m.disjoint(f, g.Not())
}

// Disjoint reports whether f·g = 0 without building the product BDD.
func (m *Manager) Disjoint(f, g Ref) bool {
	m.checkRef(f)
	m.checkRef(g)
	m.growSigMemo()
	return m.disjoint(f, g)
}

// boolRef encodes a boolean verdict as a constant Ref for the computed
// cache; the match kernels and disjoint store their results this way.
func boolRef(b bool) Ref {
	if b {
		return One
	}
	return Zero
}

func (m *Manager) disjoint(f, g Ref) bool {
	if f == Zero || g == Zero {
		return true
	}
	if f == One || g == One {
		return false
	}
	if f == g {
		return false
	}
	if f == g.Not() {
		return true
	}
	// A signature lane where both functions hold witnesses a nonempty
	// product — no recursion, no cache traffic.
	if m.sigRefuteDisjoint(f, g) {
		return false
	}
	// Budget check past the cheap exits and the signature filter; see
	// xorCareZero in match.go.
	if m.budget != nil {
		m.budgetStep()
	}
	// Boolean-result slot: disjointness is symmetric, so canonicalize the
	// operand order before probing the memoized verdict.
	a, b := f, g
	if b < a {
		a, b = b, a
	}
	if r, ok := m.cache.lookup(opDisjoint, a, b, 0, 0); ok {
		return r == One
	}
	top := m.Level(f)
	if l := m.Level(g); l < top {
		top = l
	}
	fT, fE := m.branches(f, top)
	gT, gE := m.branches(g, top)
	res := m.disjoint(fT, gT) && m.disjoint(fE, gE)
	m.cache.insert(opDisjoint, a, b, 0, 0, boolRef(res))
	return res
}

// Cover reports whether g is a cover of the incompletely specified
// function [f, c], i.e. f·c ≤ g ≤ f + ¬c (Definition 2 of the paper).
func (m *Manager) Cover(g, f, c Ref) bool {
	fc, nfc := m.And(f, c), m.And(f.Not(), c)
	m.growSigMemo() // the conjunctions above may have grown the arena
	return m.disjoint(fc, g.Not()) && m.disjoint(g, nfc)
}

// Equal reports whether f and g denote the same function. With strong
// canonicity this is a Ref comparison; the method exists for readability
// and to keep call sites manager-checked.
func (m *Manager) Equal(f, g Ref) bool {
	m.checkRef(f)
	m.checkRef(g)
	return f == g
}
