package bdd

import "strings"

// CubeValue is one position of a cube over the manager's variables:
// 0, 1, or DontCare (the variable does not appear in the cube).
type CubeValue int8

// Cube position values.
const (
	CubeZero CubeValue = 0
	CubeOne  CubeValue = 1
	DontCare CubeValue = 2
)

// ForEachCube enumerates the cubes of f — the paths of f's diagram that
// lead to the constant One — in depth-first order with the high (then)
// branch explored first. The callback receives a cube over all manager
// variables; positions not on the path hold DontCare. The slice is reused
// between calls; callers must copy it to retain it.
//
// Enumeration stops early when the callback returns false, or after limit
// cubes if limit > 0. It returns the number of cubes delivered. OneCube
// takes the first cube; the network optimizer lowers small covers to SOP
// cubes with it.
func (m *Manager) ForEachCube(f Ref, limit int, fn func(cube []CubeValue) bool) int {
	m.checkRef(f)
	cube := make([]CubeValue, m.nvars)
	for i := range cube {
		cube[i] = DontCare
	}
	count := 0
	m.cubeWalk(f, cube, limit, &count, fn)
	return count
}

// cubeWalk returns false when enumeration should stop.
func (m *Manager) cubeWalk(f Ref, cube []CubeValue, limit int, count *int, fn func([]CubeValue) bool) bool {
	if f == Zero {
		return true
	}
	if f == One {
		*count++
		if !fn(cube) {
			return false
		}
		return limit <= 0 || *count < limit
	}
	lvl := m.Level(f)
	t, e := m.branches(f, lvl)
	cube[lvl] = CubeOne
	if !m.cubeWalk(t, cube, limit, count, fn) {
		cube[lvl] = DontCare
		return false
	}
	cube[lvl] = CubeZero
	ok := m.cubeWalk(e, cube, limit, count, fn)
	cube[lvl] = DontCare
	return ok
}

// CubeRef builds the BDD of a cube given positionally: cube[v] states
// whether variable v appears positively, negatively, or not at all.
func (m *Manager) CubeRef(cube []CubeValue) Ref {
	r := One
	for v := len(cube) - 1; v >= 0; v-- {
		switch cube[v] {
		case CubeOne:
			r = m.mkNode(int32(v), r, Zero)
		case CubeZero:
			r = m.mkNode(int32(v), Zero, r)
		case DontCare:
		default:
			panic("bdd: invalid cube value")
		}
	}
	return r
}

// CubeFromLiterals builds the BDD of the conjunction of the given literals.
func (m *Manager) CubeFromLiterals(lits ...Literal) Ref {
	cube := make([]CubeValue, m.nvars)
	for i := range cube {
		cube[i] = DontCare
	}
	for _, l := range lits {
		m.checkVar(l.Var)
		want := CubeZero
		if l.Phase {
			want = CubeOne
		}
		if cube[l.Var] != DontCare && cube[l.Var] != want {
			return Zero // contradictory literals
		}
		cube[l.Var] = want
	}
	return m.CubeRef(cube)
}

// IsCube reports whether f is a cube: a (possibly empty) conjunction of
// literals. The constant One is the empty cube; Zero is not a cube.
//
// In a reduced diagram with complement edges, f is a cube exactly when a
// single 1-path exists, i.e. every node on the path has its other branch
// equal to Zero.
func (m *Manager) IsCube(f Ref) bool {
	m.checkRef(f)
	if f == Zero {
		return false
	}
	for f != One {
		t, e := m.Branches(f)
		switch {
		case e == Zero:
			f = t
		case t == Zero:
			f = e
		default:
			return false
		}
	}
	return true
}

// FormatCube renders a cube using the manager's variable names, e.g.
// "x0 !x2 x5". The empty cube renders as "1".
func (m *Manager) FormatCube(cube []CubeValue) string {
	var b strings.Builder
	for v, val := range cube {
		if val == DontCare {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if val == CubeZero {
			b.WriteByte('!')
		}
		b.WriteString(m.VarName(Var(v)))
	}
	if b.Len() == 0 {
		return "1"
	}
	return b.String()
}

// OneCube returns an arbitrary cube of f (the first in depth-first order),
// or ok=false if f is Zero.
func (m *Manager) OneCube(f Ref) (cube []CubeValue, ok bool) {
	m.ForEachCube(f, 1, func(c []CubeValue) bool {
		cube = append([]CubeValue(nil), c...)
		return false
	})
	return cube, cube != nil
}
