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

// RenameMonotone renames variables of f according to perm: every variable v
// in f's support is replaced by perm[v]. The mapping restricted to the
// support must be strictly order-preserving (monotone), which allows a
// linear rebuild without reordering. It panics otherwise.
//
// The FSM package uses this to map next-state variables back to
// present-state variables after an image computation; with the interleaved
// variable blocks it allocates, that mapping is always monotone.
func (m *Manager) RenameMonotone(f Ref, perm map[Var]Var) Ref {
	m.checkRef(f)
	sup := m.Support(f)
	last := Var(-1)
	for _, v := range sup { // Support returns ascending order
		t, ok := perm[v]
		if !ok {
			t = v
		}
		if t <= last {
			panic("bdd: RenameMonotone permutation is not order-preserving on the support")
		}
		m.checkVar(t)
		last = t
	}
	memo := make(map[Ref]Ref)
	return m.rename(f, perm, memo)
}

func (m *Manager) rename(f Ref, perm map[Var]Var, memo map[Ref]Ref) Ref {
	if f.IsConst() {
		return f
	}
	if r, ok := memo[f]; ok {
		return r
	}
	top := Var(m.Level(f))
	fT, fE := m.branches(f, int32(top))
	t := m.rename(fT, perm, memo)
	e := m.rename(fE, perm, memo)
	nv, ok := perm[top]
	if !ok {
		nv = top
	}
	r := m.mkNode(int32(nv), t, e)
	memo[f] = r
	return r
}
