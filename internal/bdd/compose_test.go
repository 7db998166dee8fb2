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

func TestRenameMonotone(t *testing.T) {
	m := New(6)
	f := m.Or(m.And(m.MkVar(0), m.MkVar(2)), m.MkVar(4))
	perm := map[Var]Var{0: 1, 2: 3, 4: 5}
	g := m.RenameMonotone(f, perm)
	want := m.Or(m.And(m.MkVar(1), m.MkVar(3)), m.MkVar(5))
	if g != want {
		t.Fatal("monotone rename produced wrong function")
	}
	// Renaming back is the inverse.
	back := m.RenameMonotone(g, map[Var]Var{1: 0, 3: 2, 5: 4})
	if back != f {
		t.Fatal("inverse rename must restore the function")
	}
}

func TestRenameMonotoneRejectsNonMonotone(t *testing.T) {
	m := New(4)
	f := m.And(m.MkVar(0), m.MkVar(1))
	defer func() {
		if recover() == nil {
			t.Fatal("non-monotone rename must panic")
		}
	}()
	m.RenameMonotone(f, map[Var]Var{0: 3, 1: 2}) // order-reversing
}

func TestRenameIdentityAndPartial(t *testing.T) {
	m := New(4)
	f := m.Xor(m.MkVar(1), m.MkVar(2))
	if m.RenameMonotone(f, map[Var]Var{}) != f {
		t.Fatal("empty rename must be identity")
	}
	// Mapping entries for variables outside the support are ignored.
	if m.RenameMonotone(f, map[Var]Var{0: 3}) != f {
		t.Fatal("rename of non-support variable must be identity")
	}
}
