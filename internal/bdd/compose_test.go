package bdd

import "testing"

func TestComposeAgainstTruthTables(t *testing.T) {
	rng := newRand(20)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		m := New(n)
		a, b := randTT(rng, n), randTT(rng, n)
		f, g := a.build(m), b.build(m)
		v := rng.Intn(n)
		got := m.Compose(f, Var(v), g)
		// Oracle: f with position v replaced by b's value.
		want := make([]bool, len(a.bits))
		stride := 1 << (n - 1 - v)
		for i := range want {
			j := i &^ stride
			if b.bits[i] {
				j = i | stride
			}
			want[i] = a.bits[j]
		}
		sameFunction(t, m, got, tt{n: n, bits: want}, "Compose")
	}
}

func TestComposeIdentities(t *testing.T) {
	m := New(4)
	f := m.Xor(m.MkVar(0), m.And(m.MkVar(1), m.MkVar(2)))
	// Composing a variable with itself is the identity.
	if m.Compose(f, 1, m.MkVar(1)) != f {
		t.Fatal("compose with self must be identity")
	}
	// Composing a non-support variable is the identity.
	if m.Compose(f, 3, m.MkVar(0)) != f {
		t.Fatal("compose of non-support var must be identity")
	}
	// Shannon expansion: f = ite(x, f|x=1, f|x=0).
	fT := m.Compose(f, 0, One)
	fE := m.Compose(f, 0, Zero)
	if m.ITE(m.MkVar(0), fT, fE) != f {
		t.Fatal("Shannon expansion via Compose must reconstruct f")
	}
	tb, eb := m.Branches(f)
	if fT != tb || fE != eb {
		t.Fatal("Compose with constants must agree with Branches")
	}
}
