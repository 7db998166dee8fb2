package bdd

import (
	"math"
	"testing"
)

func TestSupport(t *testing.T) {
	m := New(6)
	f := m.Or(m.And(m.MkVar(1), m.MkVar(3)), m.MkNotVar(5))
	got := m.Support(f)
	want := []Var{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
	if len(m.Support(One)) != 0 || len(m.Support(Zero)) != 0 {
		t.Fatal("constants have empty support")
	}
}

func TestSupportMatchesSensitivity(t *testing.T) {
	rng := newRand(30)
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(5)
		m := New(n)
		a := randTT(rng, n)
		f := a.build(m)
		sup := make(map[Var]bool)
		for _, v := range m.Support(f) {
			sup[v] = true
		}
		for v := 0; v < n; v++ {
			stride := 1 << (n - 1 - v)
			sensitive := false
			for i := range a.bits {
				if a.bits[i|stride] != a.bits[i&^stride] {
					sensitive = true
					break
				}
			}
			if sensitive != sup[Var(v)] {
				t.Fatalf("support of x%d: got %v want %v", v, sup[Var(v)], sensitive)
			}
		}
	}
}

func TestSizeAndLevels(t *testing.T) {
	m := New(3)
	if m.Size(One) != 1 || m.Size(Zero) != 1 {
		t.Fatal("constants have size 1 (the terminal)")
	}
	x := m.MkVar(0)
	if m.Size(x) != 2 {
		t.Fatalf("Size(x0) = %d, want 2", m.Size(x))
	}
	// Figure-1-style parity function: full diagram.
	f := m.Xor(m.Xor(m.MkVar(0), m.MkVar(1)), m.MkVar(2))
	// Parity with complement edges: one node per level plus terminal.
	if m.Size(f) != 4 {
		t.Fatalf("Size(parity3) = %d, want 4 (complement edges shrink parity)", m.Size(f))
	}
	if m.NodesBelowLevel(f, 0) != 2 {
		t.Fatalf("NodesBelowLevel(f,0) = %d, want 2", m.NodesBelowLevel(f, 0))
	}
	if m.NodesBelowLevel(f, 2) != 0 {
		t.Fatalf("NodesBelowLevel(f,2) = %d, want 0", m.NodesBelowLevel(f, 2))
	}
}

func TestSharedSize(t *testing.T) {
	m := New(4)
	f := m.And(m.MkVar(0), m.MkVar(1))
	g := m.And(m.MkVar(1), m.MkVar(0)) // same function
	if m.SharedSize(f, g) != m.Size(f) {
		t.Fatal("shared size of identical functions equals single size")
	}
	h := m.MkVar(3)
	if m.SharedSize(f, h) != m.Size(f)+1 {
		t.Fatalf("SharedSize = %d", m.SharedSize(f, h))
	}
}

func TestDensityAndSatCount(t *testing.T) {
	rng := newRand(31)
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(6)
		m := New(n)
		a := randTT(rng, n)
		f := a.build(m)
		ones := 0
		for _, b := range a.bits {
			if b {
				ones++
			}
		}
		wantDensity := float64(ones) / float64(len(a.bits))
		if d := m.Density(f); math.Abs(d-wantDensity) > 1e-12 {
			t.Fatalf("Density = %v, want %v", d, wantDensity)
		}
		if sc := m.SatCount(f, n); math.Abs(sc-float64(ones)) > 1e-9 {
			t.Fatalf("SatCount = %v, want %d", sc, ones)
		}
	}
}

func TestDensityOfConstants(t *testing.T) {
	m := New(3)
	if m.Density(One) != 1 || m.Density(Zero) != 0 {
		t.Fatal("constant densities")
	}
	if m.SatCount(m.MkVar(1), 3) != 4 {
		t.Fatal("SatCount of a literal over 3 vars must be 4")
	}
}

func TestEval(t *testing.T) {
	rng := newRand(32)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		m := New(n)
		a := randTT(rng, n)
		f := a.build(m)
		asn := make([]bool, n)
		for k := range a.bits {
			for i := 0; i < n; i++ {
				asn[i] = k&(1<<(n-1-i)) != 0
			}
			if m.Eval(f, asn) != a.bits[k] {
				t.Fatalf("Eval mismatch at minterm %d", k)
			}
			if m.Eval(f.Not(), asn) == a.bits[k] {
				t.Fatalf("Eval of complement mismatch at minterm %d", k)
			}
		}
	}
}

func TestTruthTableRoundTrip(t *testing.T) {
	rng := newRand(33)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		m := New(n)
		a := randTT(rng, n)
		f := a.build(m)
		back := m.TruthTable(f, vars(n))
		for i := range back {
			if back[i] != a.bits[i] {
				t.Fatalf("round trip mismatch at %d", i)
			}
		}
		if m.FromTruthTable(vars(n), back) != f {
			t.Fatal("rebuilding from truth table must be canonical")
		}
	}
}
