package bdd

import (
	"encoding/binary"
	"fmt"
)

// Constrain computes the generalized cofactor f ↓ c of Coudert, Berthet and
// Madre, the "constrain" operator of the paper. The result is a cover of
// the incompletely specified function [f, c], and by Theorem 7 of the paper
// it is a minimum-size cover whenever c is a cube.
//
// This is the classical direct recursion; the minimization framework in
// package core re-derives the same operator as the generic sibling matcher
// instantiated with the osdm criterion and both flags off, and the two are
// cross-checked in tests.
//
// Constrain panics if c is Zero (no cover exists for an empty care
// constraint in the classical operator's formulation).
func (m *Manager) Constrain(f, c Ref) Ref {
	m.checkRef(f)
	m.checkRef(c)
	if c == Zero {
		panic("bdd: Constrain with empty care set")
	}
	return m.constrain(f, c)
}

func (m *Manager) constrain(f, c Ref) Ref {
	if c == One || f.IsConst() {
		return f
	}
	if f == c {
		return One
	}
	if f == c.Not() {
		return Zero
	}
	if r, ok := m.cache.lookup(opConstrain, f, c, 0, 0); ok {
		return r
	}
	// Budget check past the terminal cases and the cache hit; see ite.go.
	if m.budget != nil {
		m.budgetStep()
	}
	top := m.Level(f)
	if l := m.Level(c); l < top {
		top = l
	}
	fT, fE := m.branches(f, top)
	cT, cE := m.branches(c, top)
	var r Ref
	switch {
	case cT == Zero:
		r = m.constrain(fE, cE)
	case cE == Zero:
		r = m.constrain(fT, cT)
	default:
		r = m.mkNode(top, m.constrain(fT, cT), m.constrain(fE, cE))
	}
	m.cache.insert(opConstrain, f, c, 0, 0, r)
	return r
}

// Restrict computes the restrict operator of Coudert and Madre: like
// Constrain, but when the care function's top variable does not occur in
// f's subgraph, the variable is existentially abstracted from c instead of
// being introduced into the result ("no-new-vars"). The result is a cover
// of [f, c].
//
// The framework equivalent is the generic sibling matcher with the osdm
// criterion and the no-new-vars flag on.
func (m *Manager) Restrict(f, c Ref) Ref {
	m.checkRef(f)
	m.checkRef(c)
	if c == Zero {
		panic("bdd: Restrict with empty care set")
	}
	return m.restrict(f, c)
}

func (m *Manager) restrict(f, c Ref) Ref {
	if c == One || f.IsConst() {
		return f
	}
	if f == c {
		return One
	}
	if f == c.Not() {
		return Zero
	}
	if r, ok := m.cache.lookup(opRestrict, f, c, 0, 0); ok {
		return r
	}
	// Budget check past the terminal cases and the cache hit; see ite.go.
	if m.budget != nil {
		m.budgetStep()
	}
	fl, cl := m.Level(f), m.Level(c)
	var r Ref
	switch {
	case cl < fl:
		// f is independent of c's top variable (ordering invariant:
		// every variable in f is at or below fl). Abstract it from c.
		cT, cE := m.branches(c, cl)
		r = m.restrict(f, m.Or(cT, cE))
	case fl < cl:
		fT, fE := m.branches(f, fl)
		r = m.mkNode(fl, m.restrict(fT, c), m.restrict(fE, c))
	default:
		fT, fE := m.branches(f, fl)
		cT, cE := m.branches(c, cl)
		switch {
		case cT == Zero:
			r = m.restrict(fE, cE)
		case cE == Zero:
			r = m.restrict(fT, cT)
		default:
			r = m.mkNode(fl, m.restrict(fT, cT), m.restrict(fE, cE))
		}
	}
	m.cache.insert(opRestrict, f, c, 0, 0, r)
	return r
}

// Range returns the range of the function vector fs over the output
// variables ys: the set of points y such that y_i = fs[i](x) for every i
// and some x. fs and ys must have the same length and the ys must be
// distinct; in ascending order, each step's y sits above the sub-ranges it
// joins. Range(nil, nil) is One.
//
// By constrain's image property (footnote 1 of the paper), the image of a
// non-empty set D under a vector F is the range of F ↓ D, so
// Range(F ↓ D, ys) equals ∃x [D(x) ∧ ∧_i (y_i ≡ F_i(x))] without building
// that relation. The recursion splits on the first function g, after
// Coudert, Berthet and Madre: range(g, rest) = y·range(rest ↓ g) +
// ¬y·range(rest ↓ ¬g), memoized on the whole remaining vector.
func (m *Manager) Range(fs []Ref, ys []Var) Ref {
	if len(fs) != len(ys) {
		panic(fmt.Sprintf("bdd: Range of %d functions over %d variables", len(fs), len(ys)))
	}
	for i, f := range fs {
		m.checkRef(f)
		m.checkVar(ys[i])
	}
	return m.rangeOf(fs, ys, make(map[string]Ref))
}

func (m *Manager) rangeOf(fs []Ref, ys []Var, memo map[string]Ref) Ref {
	if len(fs) == 0 {
		return One
	}
	key := vecKey(fs)
	if r, ok := memo[key]; ok {
		return r
	}
	g, rest := fs[0], fs[1:]
	y := m.MkVar(ys[0])
	var r Ref
	switch g {
	case One:
		r = m.ite(y, m.rangeOf(rest, ys[1:], memo), Zero)
	case Zero:
		r = m.ite(y.Not(), m.rangeOf(rest, ys[1:], memo), Zero)
	default:
		pos := m.rangeOf(m.constrainVec(rest, g), ys[1:], memo)
		neg := m.rangeOf(m.constrainVec(rest, g.Not()), ys[1:], memo)
		r = m.ite(y, pos, neg)
	}
	memo[key] = r
	return r
}

// constrainVec cofactors every function of fs by c into a new slice.
func (m *Manager) constrainVec(fs []Ref, c Ref) []Ref {
	out := make([]Ref, len(fs))
	for i, f := range fs {
		out[i] = m.constrain(f, c)
	}
	return out
}

// vecKey packs a vector of Refs into a map key.
func vecKey(fs []Ref) string {
	buf := make([]byte, 0, 4*len(fs))
	for _, f := range fs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f))
	}
	return string(buf)
}
