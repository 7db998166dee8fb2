package bdd

import (
	"math/rand"
	"testing"
)

// tt is a dense truth table over n variables used as a test oracle.
type tt struct {
	n    int
	bits []bool
}

func randTT(rng *rand.Rand, n int) tt {
	bits := make([]bool, 1<<n)
	for i := range bits {
		bits[i] = rng.Intn(2) == 1
	}
	return tt{n: n, bits: bits}
}

func (t tt) and(u tt) tt { return t.zip(u, func(a, b bool) bool { return a && b }) }
func (t tt) or(u tt) tt  { return t.zip(u, func(a, b bool) bool { return a || b }) }
func (t tt) xor(u tt) tt { return t.zip(u, func(a, b bool) bool { return a != b }) }
func (t tt) not() tt {
	out := make([]bool, len(t.bits))
	for i, b := range t.bits {
		out[i] = !b
	}
	return tt{n: t.n, bits: out}
}

func (t tt) zip(u tt, f func(a, b bool) bool) tt {
	if t.n != u.n {
		panic("tt arity mismatch")
	}
	out := make([]bool, len(t.bits))
	for i := range out {
		out[i] = f(t.bits[i], u.bits[i])
	}
	return tt{n: t.n, bits: out}
}

// vars returns 0..n-1 as []Var.
func vars(n int) []Var {
	out := make([]Var, n)
	for i := range out {
		out[i] = Var(i)
	}
	return out
}

// build materializes the truth table in m.
func (t tt) build(m *Manager) Ref { return m.FromTruthTable(vars(t.n), t.bits) }

// randPool builds count deterministic random functions over n variables.
func randPool(n, count int, seed int64) (*Manager, []Ref) {
	m, rng := New(n), newRand(seed)
	fs := make([]Ref, count)
	for i := range fs {
		fs[i] = randTT(rng, n).build(m)
	}
	return m, fs
}

// sameFunction checks pointwise equality of f against the truth table.
func sameFunction(t *testing.T, m *Manager, f Ref, want tt, label string) {
	t.Helper()
	got := m.TruthTable(f, vars(want.n))
	for i := range got {
		if got[i] != want.bits[i] {
			t.Fatalf("%s: mismatch at minterm %d: got %v want %v", label, i, got[i], want.bits[i])
		}
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
