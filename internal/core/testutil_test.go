package core

import (
	"math/rand"
	"testing"

	"bddmin/internal/bdd"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// randFunc builds a random function over n variables in m.
func randFunc(rng *rand.Rand, m *bdd.Manager, n int) bdd.Ref {
	vals := make([]bool, 1<<n)
	for i := range vals {
		vals[i] = rng.Intn(2) == 1
	}
	vs := make([]bdd.Var, n)
	for i := range vs {
		vs[i] = bdd.Var(i)
	}
	return m.FromTruthTable(vs, vals)
}

// randISF builds a random instance with a nonzero care set. bias01 shifts
// the care density: 0 → ~50%, positive → sparser care sets.
func randISF(rng *rand.Rand, m *bdd.Manager, n int) ISF {
	f := randFunc(rng, m, n)
	c := randFunc(rng, m, n)
	for c == bdd.Zero {
		c = randFunc(rng, m, n)
	}
	return ISF{F: f, C: c}
}

// allCovers enumerates every cover of in over n variables, invoking fn for
// each. Strictly for tiny n.
func allCovers(m *bdd.Manager, in ISF, n int, fn func(g bdd.Ref)) {
	vs := make([]bdd.Var, n)
	for i := range vs {
		vs[i] = bdd.Var(i)
	}
	fBits := m.TruthTable(in.F, vs)
	cBits := m.TruthTable(in.C, vs)
	var dcPos []int
	for i, care := range cBits {
		if !care {
			dcPos = append(dcPos, i)
		}
	}
	vals := make([]bool, len(fBits))
	for mask := 0; mask < 1<<len(dcPos); mask++ {
		copy(vals, fBits)
		for j, p := range dcPos {
			vals[p] = mask&(1<<j) != 0
		}
		fn(m.FromTruthTable(vs, vals))
	}
}

// requireCover fails the test unless g covers [f, c].
func requireCover(t *testing.T, m *bdd.Manager, g bdd.Ref, in ISF, label string) {
	t.Helper()
	if !in.Cover(m, g) {
		t.Fatalf("%s: result is not a cover", label)
	}
}

// completeSpec parses a completely specified function in ParseSpec's leaf
// notation, failing the test if spec has a don't care.
func completeSpec(t *testing.T, m *bdd.Manager, spec string) bdd.Ref {
	t.Helper()
	in := MustParseSpec(m, spec)
	if in.C != bdd.One {
		t.Fatalf("spec %q has don't cares", spec)
	}
	return in.F
}
