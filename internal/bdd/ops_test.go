package bdd

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestOpsAgainstTruthTables(t *testing.T) {
	rng := newRand(1)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(7)
		m := New(n)
		a, b := randTT(rng, n), randTT(rng, n)
		fa, fb := a.build(m), b.build(m)
		sameFunction(t, m, m.And(fa, fb), a.and(b), "And")
		sameFunction(t, m, m.Or(fa, fb), a.or(b), "Or")
		sameFunction(t, m, m.Xor(fa, fb), a.xor(b), "Xor")
		sameFunction(t, m, m.Xnor(fa, fb), a.xor(b).not(), "Xnor")
		sameFunction(t, m, m.AndNot(fa, fb), a.and(b.not()), "AndNot")
		sameFunction(t, m, fa.Not(), a.not(), "Not")
	}
}

func TestITEAgainstTruthTables(t *testing.T) {
	rng := newRand(2)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := New(n)
		a, b, c := randTT(rng, n), randTT(rng, n), randTT(rng, n)
		fa, fb, fc := a.build(m), b.build(m), c.build(m)
		want := a.and(b).or(a.not().and(c))
		sameFunction(t, m, m.ITE(fa, fb, fc), want, "ITE")
	}
}

func TestITETerminalRules(t *testing.T) {
	m := New(3)
	f := m.Xor(m.MkVar(0), m.MkVar(1))
	g := m.And(m.MkVar(1), m.MkVar(2))
	cases := []struct {
		name string
		got  Ref
		want Ref
	}{
		{"ite(1,g,f)", m.ITE(One, g, f), g},
		{"ite(0,g,f)", m.ITE(Zero, g, f), f},
		{"ite(f,g,g)", m.ITE(f, g, g), g},
		{"ite(f,1,0)", m.ITE(f, One, Zero), f},
		{"ite(f,0,1)", m.ITE(f, Zero, One), f.Not()},
		{"ite(f,f,g)", m.ITE(f, f, g), m.Or(f, g)},
		{"ite(f,!f,g)", m.ITE(f, f.Not(), g), m.And(f.Not(), g)},
		{"ite(f,g,f)", m.ITE(f, g, f), m.And(f, g)},
		{"ite(f,g,!f)", m.ITE(f, g, f.Not()), m.Or(f.Not(), g)},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v want %v", c.name, c.got, c.want)
		}
	}
}

func TestBooleanAlgebraProperties(t *testing.T) {
	// Property-based check of core identities on arbitrary 6-var functions
	// encoded as uint64 truth tables.
	m := New(6)
	build := func(bits uint64) Ref {
		vals := make([]bool, 64)
		for i := range vals {
			vals[i] = bits&(1<<uint(i)) != 0
		}
		return m.FromTruthTable(vars(6), vals)
	}
	prop := func(x, y, z uint64) bool {
		f, g, h := build(x), build(y), build(z)
		if m.And(f, g) != m.And(g, f) {
			return false
		}
		if m.Or(f, m.And(g, h)) != m.And(m.Or(f, g), m.Or(f, h)) {
			return false
		}
		if m.Xor(f, g) != m.Or(m.AndNot(f, g), m.AndNot(g, f)) {
			return false
		}
		if m.And(f, f.Not()) != Zero || m.Or(f, f.Not()) != One {
			return false
		}
		if m.And(f, m.Or(f, g)) != f { // absorption
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLeqDisjointCover(t *testing.T) {
	rng := newRand(3)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := New(n)
		a, b := randTT(rng, n), randTT(rng, n)
		fa, fb := a.build(m), b.build(m)
		wantLeq := true
		wantDisjoint := true
		for i := range a.bits {
			if a.bits[i] && !b.bits[i] {
				wantLeq = false
			}
			if a.bits[i] && b.bits[i] {
				wantDisjoint = false
			}
		}
		if got := m.Leq(fa, fb); got != wantLeq {
			t.Fatalf("Leq = %v, want %v", got, wantLeq)
		}
		if got := m.Disjoint(fa, fb); got != wantDisjoint {
			t.Fatalf("Disjoint = %v, want %v", got, wantDisjoint)
		}
	}
}

func TestCoverDefinition(t *testing.T) {
	rng := newRand(4)
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(5)
		m := New(n)
		f, c, g := randTT(rng, n), randTT(rng, n), randTT(rng, n)
		rf, rc, rg := f.build(m), c.build(m), g.build(m)
		want := true
		for i := range f.bits {
			if c.bits[i] && g.bits[i] != f.bits[i] {
				want = false
				break
			}
		}
		if got := m.Cover(rg, rf, rc); got != want {
			t.Fatalf("Cover = %v, want %v", got, want)
		}
	}
}

func TestAndNOrN(t *testing.T) {
	m := New(4)
	if m.AndN() != One || m.OrN() != Zero {
		t.Fatal("empty folds must be identities")
	}
	lits := []Ref{m.MkVar(0), m.MkVar(1), m.MkVar(2), m.MkVar(3)}
	cube := m.AndN(lits...)
	if !m.IsCube(cube) || m.Size(cube) != 5 {
		t.Fatalf("AndN of 4 literals: IsCube=%v size=%d", m.IsCube(cube), m.Size(cube))
	}
	clause := m.OrN(lits...)
	if clause != m.AndN(lits[0].Not(), lits[1].Not(), lits[2].Not(), lits[3].Not()).Not() {
		t.Fatal("OrN must dualize AndN")
	}
	if m.AndN(m.MkVar(0), m.MkVar(0).Not(), m.MkVar(1)) != Zero {
		t.Fatal("contradictory AndN must be Zero")
	}

	// OrN's balanced fold against the linear Or chain, on lists of 0–40
	// functions: random truth tables cut down by a cube of two to five
	// literals, so that the sums stay short of One.
	const n = 8
	m = New(n)
	rng := newRand(22)
	for trial := 0; trial < 200; trial++ {
		fs := make([]Ref, rng.Intn(41))
		for i := range fs {
			f := randTT(rng, n).build(m)
			for k := 2 + rng.Intn(4); k > 0; k-- {
				lit := m.MkVar(Var(rng.Intn(n)))
				if rng.Intn(2) == 0 {
					lit = lit.Not()
				}
				f = m.And(f, lit)
			}
			fs[i] = f
		}
		want := Zero
		for _, f := range fs {
			want = m.Or(want, f)
		}
		before := slices.Clone(fs)
		if got := m.OrN(fs...); got != want {
			t.Fatalf("trial %d: OrN of %d functions differs from the Or chain", trial, len(fs))
		}
		if !slices.Equal(fs, before) {
			t.Fatalf("trial %d: OrN changed its argument slice", trial)
		}
		if len(fs) > 0 {
			fs[rng.Intn(len(fs))] = One
			if m.OrN(fs...) != One {
				t.Fatalf("trial %d: OrN of a list holding One is not One", trial)
			}
		}
	}
}

func TestEqualChecksManagers(t *testing.T) {
	m := New(2)
	f := m.MkVar(0)
	if !m.Equal(f, m.MkVar(0)) {
		t.Fatal("Equal must hold for identical functions")
	}
	if m.Equal(f, f.Not()) {
		t.Fatal("Equal must fail for complements")
	}
}
