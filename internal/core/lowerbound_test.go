package core

import (
	"testing"

	"bddmin/internal/bdd"
)

// TestLowerBoundBelowExactMinimum: the bound must never exceed the true
// minimum cover size (its whole point).
func TestLowerBoundBelowExactMinimum(t *testing.T) {
	rng := newRand(500)
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(3)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		_, best := ExactMinimize(m, in.F, in.C, n)
		lb := LowerBound(m, in.F, in.C)
		if lb > best {
			t.Fatalf("lower bound %d exceeds exact minimum %d (trial %d)", lb, best, trial)
		}
		if lb < 1 {
			t.Fatal("lower bound must be at least 1")
		}
	}
}

// TestLowerBoundExactOnCubeCare: when c is itself a cube the walk finds it
// and Theorem 7 makes the bound exact.
func TestLowerBoundExactOnCubeCare(t *testing.T) {
	rng := newRand(501)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3)
		m := bdd.New(n)
		f := randFunc(rng, m, n)
		cube := make([]bdd.CubeValue, n)
		for v := range cube {
			cube[v] = bdd.CubeValue(rng.Intn(3))
		}
		c := m.CubeRef(cube)
		if c == bdd.Zero {
			continue
		}
		_, best := ExactMinimize(m, f, c, n)
		if lb := LowerBound(m, f, c); lb != best {
			t.Fatalf("cube care set: lower bound %d, exact %d", lb, best)
		}
	}
}

// TestLowerBoundMonotoneInBudget: a larger pair cap never lowers the
// bound, since a longer walk reaches a superset of 1-paths of c.
func TestLowerBoundMonotoneInBudget(t *testing.T) {
	rng := newRand(502)
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(3)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		prev := 0
		for _, limit := range []int{1, 2, 4, 16, maxBoundPairs} {
			lb, _ := lowerBound(m, in.F, in.C, limit)
			if lb < prev {
				t.Fatalf("pair cap %d lowered the bound to %d from %d", limit, lb, prev)
			}
			prev = lb
		}
	}
}

// enumeratedBound is Section 4.1.1's bound computed by listing every cube
// of c and constraining f by it: the oracle for the one-walk LowerBound.
func enumeratedBound(m *bdd.Manager, f, c bdd.Ref) int {
	best := 1
	m.ForEachCube(c, 0, func(cube []bdd.CubeValue) bool {
		best = max(best, m.Size(m.Constrain(f, m.CubeRef(cube))))
		return true
	})
	return best
}

// TestLowerBoundEqualsEnumeration: the walk visits every 1-path of c, so
// it equals the full cube enumeration. Half the instances are built from
// XOR chains with negated operands, so that most edges of f and c are
// complemented.
func TestLowerBoundEqualsEnumeration(t *testing.T) {
	rng := newRand(504)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		if trial%2 == 1 {
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					in.C = m.Xnor(in.C, m.MkVar(bdd.Var(v)))
				}
				if rng.Intn(2) == 0 {
					in.F = m.Xor(in.F, m.MkNotVar(bdd.Var(v)))
				}
			}
			in.F = in.F.Not()
			if in.C == bdd.Zero {
				in.C = bdd.One
			}
		}
		if lb, want := LowerBound(m, in.F, in.C), enumeratedBound(m, in.F, in.C); lb != want {
			t.Fatalf("trial %d: walk bound %d, enumeration %d", trial, lb, want)
		}
	}
}

// hostileBound builds f = x0·x1 + x2·x3 + … (k terms) and c = the parity
// of the odd variables, on which the walk meets 2^k − 1 distinct pairs.
func hostileBound(k int) (*bdd.Manager, ISF) {
	m := bdd.New(2 * k)
	f, c := bdd.Zero, bdd.Zero
	for i := 0; i < k; i++ {
		x, y := m.MkVar(bdd.Var(2*i)), m.MkVar(bdd.Var(2*i+1))
		f = m.Or(f, m.And(x, y))
		c = m.Xor(c, y)
	}
	return m, ISF{F: f, C: c}
}

// TestLowerBoundCapStopsHostileWalk: uncapped, the hostile instance needs
// 2^k − 1 pairs, more than maxBoundPairs; LowerBound stops at the cap, and
// its bound is still at most every heuristic's result.
func TestLowerBoundCapStopsHostileWalk(t *testing.T) {
	const k = 16
	m, in := hostileBound(k)
	if got, want := m.Size(in.F), 2*k+1; got != want {
		t.Fatalf("|f| = %d, want %d", got, want)
	}
	if got, want := m.Size(in.C), k+1; got != want {
		t.Fatalf("|c| = %d, want %d", got, want)
	}
	full, pairs := lowerBound(m, in.F, in.C, 1<<k)
	if pairs != 1<<k-1 {
		t.Fatalf("uncapped walk visited %d pairs, want %d", pairs, 1<<k-1)
	}
	lb, pairs := lowerBound(m, in.F, in.C, maxBoundPairs)
	if pairs != maxBoundPairs {
		t.Fatalf("capped walk visited %d pairs, want the cap %d", pairs, maxBoundPairs)
	}
	if LowerBound(m, in.F, in.C) != lb {
		t.Fatal("LowerBound must stop at maxBoundPairs")
	}
	if lb > full || lb < 1 {
		t.Fatalf("capped bound %d outside [1, %d]", lb, full)
	}
	for _, h := range Registry() {
		if s := m.Size(h.Minimize(m, in.F, in.C)); s < lb {
			t.Fatalf("%s produced size %d below the capped bound %d", h.Name(), s, lb)
		}
	}
}

// TestLowerBoundTrivial: degenerate care sets.
func TestLowerBoundTrivial(t *testing.T) {
	m := bdd.New(2)
	if LowerBound(m, m.MkVar(0), bdd.Zero) != 1 {
		t.Fatal("empty care set bound must be 1")
	}
	f := m.Xor(m.MkVar(0), m.MkVar(1))
	if lb := LowerBound(m, f, bdd.One); lb != m.Size(f) {
		t.Fatalf("full care set bound must be |f| = %d, got %d", m.Size(f), lb)
	}
}

// TestHeuristicsAboveLowerBound: every heuristic's result is at least the
// bound (combined soundness of bound and heuristics).
func TestHeuristicsAboveLowerBound(t *testing.T) {
	rng := newRand(503)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		lb := LowerBound(m, in.F, in.C)
		for _, h := range Registry() {
			if s := m.Size(h.Minimize(m, in.F, in.C)); s < lb {
				t.Fatalf("%s produced size %d below the lower bound %d", h.Name(), s, lb)
			}
		}
	}
}

func TestExactMinimizeFullySpecified(t *testing.T) {
	m := bdd.New(3)
	f := m.Or(m.And(m.MkVar(0), m.MkVar(1)), m.MkVar(2))
	g, size := ExactMinimize(m, f, bdd.One, 3)
	if g != f || size != m.Size(f) {
		t.Fatal("fully specified instance must return f itself")
	}
}

func TestExactMinimizeRejectsHugeDC(t *testing.T) {
	m := bdd.New(5)
	defer func() {
		if recover() == nil {
			t.Fatal("ExactMinimize must reject > 20 DC minterms")
		}
	}()
	ExactMinimize(m, m.MkVar(0), bdd.Zero, 5) // 32 DC minterms
}
