package bdd

// The analysis walks below are the kernel's hottest read-only paths: the
// harness calls Size and Density on every intercepted minimization call, and
// the heuristics call Support/size counting in their inner loops. They all
// run on the Manager's generation-stamp scratch (stamp.go) and reusable
// buffers, so a walk performs no heap allocation beyond its own result.

// Support returns the variables f depends on, in ascending order.
func (m *Manager) Support(f Ref) []Var {
	return m.AppendSupport(nil, f)
}

// AppendSupport appends the variables f depends on to dst, in ascending
// order, and returns the extended slice. Passing a reused buffer makes the
// support computation allocation-free.
func (m *Manager) AppendSupport(dst []Var, f Ref) []Var {
	m.checkRef(f)
	gen := m.newStamp()
	m.supportWalk(f, gen)
	return m.appendStampedVars(dst, gen)
}

func (m *Manager) supportWalk(f Ref, gen uint32) {
	idx := f.index()
	if idx == 0 || m.stamp[idx] == gen {
		return
	}
	m.stamp[idx] = gen
	n := &m.nodes[idx]
	m.varStamp[n.level] = gen
	m.supportWalk(n.high, gen)
	m.supportWalk(n.low, gen)
}

// appendStampedVars scans the per-variable stamps and appends every variable
// marked in this generation. The scan order is the variable order, so the
// result is ascending without sorting.
func (m *Manager) appendStampedVars(dst []Var, gen uint32) []Var {
	for v, g := range m.varStamp {
		if g == gen {
			dst = append(dst, Var(v))
		}
	}
	return dst
}

// Size returns the number of nodes in f's diagram, including the terminal
// node, matching |f| as defined in the paper (Section 2).
func (m *Manager) Size(f Ref) int {
	m.checkRef(f)
	gen := m.newStamp()
	return m.countReach(f, gen) + 1 // +1 for the terminal
}

// SharedSize returns the node count of the shared diagram of all given
// functions, including the terminal.
func (m *Manager) SharedSize(fs ...Ref) int {
	gen := m.newStamp()
	count := 0
	for _, f := range fs {
		m.checkRef(f)
		count += m.countReach(f, gen)
	}
	return count + 1
}

// NodesBelowLevel returns N_i(f): the number of nonterminal nodes of f's
// diagram strictly below level i, per Definition 11 of the paper.
func (m *Manager) NodesBelowLevel(f Ref, i Var) int {
	m.checkRef(f)
	gen := m.newStamp()
	m.markBuf = m.appendReach(f, gen, m.markBuf[:0])
	count := 0
	for _, idx := range m.markBuf {
		if m.nodes[idx].level > int32(i) {
			count++
		}
	}
	return count
}

// Density returns the fraction of the Boolean space (over all of the
// manager's variables — equivalently over any superset of f's support) on
// which f evaluates to 1. The experiment harness uses Density(c) as the
// paper's c_onset_size measure: the percentage of onset points of the care
// function over the space spanned by the union of supports.
func (m *Manager) Density(f Ref) float64 {
	m.checkRef(f)
	gen := m.newStamp()
	if len(m.densMemo) < len(m.nodes) {
		m.densMemo = append(m.densMemo, make([]float64, len(m.nodes)-len(m.densMemo))...)
	}
	return m.density(f, gen)
}

func (m *Manager) density(f Ref, gen uint32) float64 {
	if f == One {
		return 1
	}
	if f == Zero {
		return 0
	}
	idx := f.index()
	var d float64
	if m.stamp[idx] == gen {
		d = m.densMemo[idx]
	} else {
		n := &m.nodes[idx]
		d = (m.density(n.high, gen) + m.density(n.low, gen)) / 2
		m.stamp[idx] = gen
		m.densMemo[idx] = d
	}
	if f.IsComplement() {
		return 1 - d
	}
	return d
}

// SatCount returns the number of satisfying assignments of f over nvars
// variables, as a float64 (exact for counts below 2^53).
func (m *Manager) SatCount(f Ref, nvars int) float64 {
	if nvars < 0 {
		panic("bdd: negative variable count")
	}
	scale := 1.0
	for i := 0; i < nvars; i++ {
		scale *= 2
	}
	return m.Density(f) * scale
}

// Eval evaluates f under the assignment asn, which must cover every
// variable in f's support (indexing by Var).
func (m *Manager) Eval(f Ref, asn []bool) bool {
	m.checkRef(f)
	neg := false
	for {
		if f.IsComplement() {
			neg = !neg
			f = f.Not()
		}
		if f == One {
			return !neg
		}
		n := &m.nodes[f.index()]
		if int(n.level) >= len(asn) {
			panic("bdd: Eval assignment too short for function support")
		}
		if asn[n.level] {
			f = n.high
		} else {
			f = n.low
		}
	}
}
