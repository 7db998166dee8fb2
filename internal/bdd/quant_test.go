package bdd

import "testing"

// abstract computes the oracle for quantification on truth tables.
func (t tt) abstract(v int, or bool) tt {
	out := make([]bool, len(t.bits))
	stride := 1 << (t.n - 1 - v) // distance between the two cofactor minterms
	for i := range out {
		j := i | stride
		k := i &^ stride
		if or {
			out[i] = t.bits[j] || t.bits[k]
		} else {
			out[i] = t.bits[j] && t.bits[k]
		}
	}
	return tt{n: t.n, bits: out}
}

func TestExistsForallAgainstTruthTables(t *testing.T) {
	rng := newRand(10)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		m := New(n)
		a := randTT(rng, n)
		f := a.build(m)
		// Pick a random subset of variables to abstract.
		var vs []Var
		wantEx, wantAll := a, a
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				vs = append(vs, Var(v))
				wantEx = wantEx.abstract(v, true)
				wantAll = wantAll.abstract(v, false)
			}
		}
		cube := m.CubeVars(vs...)
		sameFunction(t, m, m.Exists(f, cube), wantEx, "Exists")
		// ∀ is ∃ of the complement, complemented.
		sameFunction(t, m, m.Exists(f.Not(), cube).Not(), wantAll, "¬∃¬")
	}
}

func TestAndExistsMatchesComposition(t *testing.T) {
	rng := newRand(11)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		m := New(n)
		a, b := randTT(rng, n), randTT(rng, n)
		fa, fb := a.build(m), b.build(m)
		var vs []Var
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				vs = append(vs, Var(v))
			}
		}
		cube := m.CubeVars(vs...)
		want := m.Exists(m.And(fa, fb), cube)
		if got := m.AndExists(fa, fb, cube); got != want {
			t.Fatalf("AndExists != Exists∘And (n=%d trial=%d)", n, trial)
		}
	}
}

func TestQuantifyIdentities(t *testing.T) {
	m := New(4)
	f := m.Or(m.And(m.MkVar(0), m.MkVar(1)), m.MkVar(2))
	// Abstracting nothing is the identity.
	if m.Exists(f, One) != f {
		t.Fatal("abstraction by the empty cube must be identity")
	}
	// Abstracting a variable outside the support is the identity.
	if m.Exists(f, m.CubeVars(3)) != f {
		t.Fatal("abstraction of non-support variable must be identity")
	}
	// Exists over the full support of a satisfiable function is One.
	if m.Exists(f, m.CubeVars(m.Support(f)...)) != One {
		t.Fatal("existential closure of satisfiable function must be One")
	}
}

func TestCubeVarsShape(t *testing.T) {
	m := New(5)
	c := m.CubeVars(3, 1, 4, 1) // unsorted with duplicate
	if !m.IsCube(c) {
		t.Fatal("CubeVars must produce a cube")
	}
	want := m.AndN(m.MkVar(1), m.MkVar(3), m.MkVar(4))
	if c != want {
		t.Fatal("CubeVars must sort and deduplicate")
	}
	if m.CubeVars() != One {
		t.Fatal("empty CubeVars must be One")
	}
}

func TestMustPositiveCubeRejectsNonCubes(t *testing.T) {
	m := New(3)
	bad := m.Or(m.MkVar(0), m.MkVar(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Exists must reject non-cube abstraction sets")
		}
	}()
	m.Exists(m.MkVar(2), bad)
}

func TestMustPositiveCubeRejectsNegativeLiterals(t *testing.T) {
	m := New(3)
	neg := m.MkNotVar(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Exists must reject cubes with negative literals")
		}
	}()
	m.Exists(m.MkVar(2), neg)
}
