package bdd

// Compose substitutes the function g for the variable v in f, computing
// f[v ← g].
func (m *Manager) Compose(f Ref, v Var, g Ref) Ref {
	m.checkRef(f)
	m.checkRef(g)
	m.checkVar(v)
	op := opCompose + uint32(v)<<8
	return m.compose(f, int32(v), g, op)
}

func (m *Manager) compose(f Ref, level int32, g Ref, op uint32) Ref {
	if m.Level(f) > level {
		// Variables in f's subgraph are all below level; v cannot occur.
		return f
	}
	if m.Level(f) == level {
		fT, fE := m.branches(f, level)
		return m.ITE(g, fT, fE)
	}
	if r, ok := m.cache.lookup(op, f, g, 0, 0); ok {
		return r
	}
	// Budget check past the terminal cases and the cache hit; see ite.go.
	if m.budget != nil {
		m.budgetStep()
	}
	top := m.Level(f)
	fT, fE := m.branches(f, top)
	t := m.compose(fT, level, g, op)
	e := m.compose(fE, level, g, op)
	// g may contain variables at or above top, so rebuild with ITE rather
	// than mkNode.
	r := m.ITE(m.MkVar(Var(top)), t, e)
	m.cache.insert(op, f, g, 0, 0, r)
	return r
}
