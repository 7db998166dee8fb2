package bdd

// Exists computes ∃ vars(cube). f, the existential abstraction of f by
// every variable in the positive cube. It panics if cube is not a cube of
// positive literals.
func (m *Manager) Exists(f, cube Ref) Ref {
	m.checkRef(f)
	m.mustPositiveCube(cube)
	return m.exists(f, cube)
}

func (m *Manager) exists(f, cube Ref) Ref {
	if cube == One || f.IsConst() {
		return f
	}
	// Skip abstraction variables above f's top.
	for m.Level(cube) < m.Level(f) {
		cube, _ = m.Branches(cube)
		if cube == One {
			return f
		}
	}
	if r, ok := m.cache.lookup(opExists, f, cube, 0, 0); ok {
		return r
	}
	// Budget check past the terminal cases and the cache hit; see ite.go.
	if m.budget != nil {
		m.budgetStep()
	}
	top := m.Level(f)
	fT, fE := m.branches(f, top)
	var r Ref
	if m.Level(cube) == top {
		next, _ := m.Branches(cube)
		t := m.exists(fT, next)
		if t == One {
			r = One
		} else {
			r = m.Or(t, m.exists(fE, next))
		}
	} else {
		r = m.mkNode(top, m.exists(fT, cube), m.exists(fE, cube))
	}
	m.cache.insert(opExists, f, cube, 0, 0, r)
	return r
}

// AndExists computes the relational product ∃ vars(cube). f·g without
// materializing the full conjunction, the core step of symbolic image
// computation.
func (m *Manager) AndExists(f, g, cube Ref) Ref {
	m.checkRef(f)
	m.checkRef(g)
	m.mustPositiveCube(cube)
	return m.andExists(f, g, cube)
}

func (m *Manager) andExists(f, g, cube Ref) Ref {
	switch {
	case f == Zero || g == Zero || f == g.Not():
		return Zero
	case f == One && g == One:
		return One
	}
	if f == One || f == g {
		return m.exists(g, cube)
	}
	if g == One {
		return m.exists(f, cube)
	}
	// Canonical argument order for the cache.
	if g < f {
		f, g = g, f
	}
	top := m.Level(f)
	if l := m.Level(g); l < top {
		top = l
	}
	for cube != One && m.Level(cube) < top {
		cube, _ = m.Branches(cube)
	}
	if cube == One {
		return m.And(f, g)
	}
	if r, ok := m.cache.lookup(opAndExists, f, g, cube, 0); ok {
		return r
	}
	// Budget check past the terminal cases and the cache hit; see ite.go.
	if m.budget != nil {
		m.budgetStep()
	}
	fT, fE := m.branches(f, top)
	gT, gE := m.branches(g, top)
	var r Ref
	if m.Level(cube) == top {
		next, _ := m.Branches(cube)
		t := m.andExists(fT, gT, next)
		if t == One {
			r = One
		} else {
			r = m.Or(t, m.andExists(fE, gE, next))
		}
	} else {
		r = m.mkNode(top, m.andExists(fT, gT, cube), m.andExists(fE, gE, cube))
	}
	m.cache.insert(opAndExists, f, g, cube, 0, r)
	return r
}

// mustPositiveCube panics unless c is a conjunction of positive literals
// (or the constant One).
func (m *Manager) mustPositiveCube(c Ref) {
	m.checkRef(c)
	for c != One {
		if c == Zero {
			panic("bdd: abstraction cube is Zero")
		}
		t, e := m.Branches(c)
		if e != Zero {
			panic("bdd: abstraction cube must consist of positive literals")
		}
		c = t
	}
}

// CubeVars builds the positive cube over the given variables, the shape
// required by the abstraction operators. The argument order is irrelevant.
func (m *Manager) CubeVars(vars ...Var) Ref {
	sorted := make([]Var, len(vars))
	copy(sorted, vars)
	for i := 1; i < len(sorted); i++ { // insertion sort; var lists are short
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	r := One
	for i := len(sorted) - 1; i >= 0; i-- {
		m.checkVar(sorted[i])
		if i > 0 && sorted[i] == sorted[i-1] {
			continue // duplicate variable
		}
		r = m.mkNode(int32(sorted[i]), r, Zero)
	}
	return r
}
