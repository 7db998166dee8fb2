package bdd

import "testing"

func TestConstrainRestrictAreCovers(t *testing.T) {
	rng := newRand(50)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		m := New(n)
		f, c := randTT(rng, n), randTT(rng, n)
		rc := c.build(m)
		if rc == Zero {
			continue
		}
		rf := f.build(m)
		g1 := m.Constrain(rf, rc)
		g2 := m.Restrict(rf, rc)
		if !m.Cover(g1, rf, rc) {
			t.Fatal("Constrain result must cover [f,c]")
		}
		if !m.Cover(g2, rf, rc) {
			t.Fatal("Restrict result must cover [f,c]")
		}
	}
}

func TestConstrainIdentities(t *testing.T) {
	m := New(4)
	f := m.Or(m.And(m.MkVar(0), m.MkVar(1)), m.MkVar(3))
	if m.Constrain(f, One) != f || m.Restrict(f, One) != f {
		t.Fatal("care set One must be identity")
	}
	if m.Constrain(f, f) != One || m.Restrict(f, f) != One {
		t.Fatal("[f,f] has cover One (care set inside onset)")
	}
	if m.Constrain(f, f.Not()) != Zero || m.Restrict(f, f.Not()) != Zero {
		t.Fatal("[f,!f] has cover Zero (care set inside offset)")
	}
	if m.Constrain(One, m.MkVar(0)) != One || m.Constrain(Zero, m.MkVar(0)) != Zero {
		t.Fatal("constants are fixed points")
	}
}

func TestConstrainZeroCarePanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Constrain(f, Zero) must panic")
		}
	}()
	m.Constrain(m.MkVar(0), Zero)
}

func TestConstrainShannonOnCube(t *testing.T) {
	// Touati et al.: constrain by a cube reduces to the Shannon cofactor.
	rng := newRand(51)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		m := New(n)
		a := randTT(rng, n)
		f := a.build(m)
		// Random cube over a random subset.
		cube := make([]CubeValue, n)
		anyLit := false
		for v := range cube {
			switch rng.Intn(3) {
			case 0:
				cube[v] = CubeZero
				anyLit = true
			case 1:
				cube[v] = CubeOne
				anyLit = true
			default:
				cube[v] = DontCare
			}
		}
		if !anyLit {
			cube[0] = CubeOne
		}
		p := m.CubeRef(cube)
		got := m.Constrain(f, p)
		// Oracle: cofactor of f by the cube's literals.
		want := f
		for v := range cube {
			switch cube[v] {
			case CubeOne:
				want = m.Compose(want, Var(v), One)
			case CubeZero:
				want = m.Compose(want, Var(v), Zero)
			}
		}
		if got != want {
			t.Fatalf("Constrain by cube must equal Shannon cofactor (trial %d)", trial)
		}
	}
}

func TestRestrictNeverAddsSupportVariables(t *testing.T) {
	// The no-new-vars rule: Restrict never introduces into the result a
	// variable that is not in the support of f (the paper notes it is
	// never beneficial to introduce a variable in neither support; restrict
	// goes further and keeps f's support).
	rng := newRand(52)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		m := New(n)
		a, c := randTT(rng, n), randTT(rng, n)
		rc := c.build(m)
		if rc == Zero {
			continue
		}
		rf := a.build(m)
		fSup := make(map[Var]bool)
		for _, v := range m.Support(rf) {
			fSup[v] = true
		}
		g := m.Restrict(rf, rc)
		for _, v := range m.Support(g) {
			if !fSup[v] {
				t.Fatalf("Restrict introduced variable x%d outside support(f)", v)
			}
		}
	}
}

func TestConstrainCubeOptimality(t *testing.T) {
	// Theorem 7: when c is a cube, Constrain produces a minimum-size cover.
	// Brute-force all covers on small instances.
	rng := newRand(53)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(2) // 2..3 vars
		m := New(n)
		a := randTT(rng, n)
		f := a.build(m)
		cube := make([]CubeValue, n)
		for v := range cube {
			cube[v] = CubeValue(rng.Intn(3))
		}
		p := m.CubeRef(cube)
		if p == Zero {
			continue
		}
		got := m.Constrain(f, p)
		if best := bruteForceMinCoverSize(m, f, p, n); m.Size(got) != best {
			t.Fatalf("Constrain by cube size %d, brute-force min %d", m.Size(got), best)
		}
	}
}

// bruteForceMinCoverSize enumerates every cover of [f,c] over n variables
// and returns the smallest BDD size. Exponential in 2^n; callers keep n
// tiny. Exported to the core package's tests via the internal test helper
// pattern (re-implemented there).
func bruteForceMinCoverSize(m *Manager, f, c Ref, n int) int {
	fBits := m.TruthTable(f, vars(n))
	cBits := m.TruthTable(c, vars(n))
	var dcPos []int
	for i, care := range cBits {
		if !care {
			dcPos = append(dcPos, i)
		}
	}
	best := 1 << 30
	vals := make([]bool, len(fBits))
	for mask := 0; mask < 1<<len(dcPos); mask++ {
		copy(vals, fBits)
		for j, p := range dcPos {
			vals[p] = mask&(1<<j) != 0
		}
		g := m.FromTruthTable(vars(n), vals)
		if s := m.Size(g); s < best {
			best = s
		}
	}
	return best
}

func TestConstrainVsRestrictDiverge(t *testing.T) {
	// The canonical example where no-new-vars matters: f independent of a
	// variable that c depends on. Restrict keeps the support small.
	m := New(2)
	x0, x1 := m.MkVar(0), m.MkVar(1)
	f := x1
	c := x0 // care only when x0=1
	gc := m.Constrain(f, c)
	gr := m.Restrict(f, c)
	if gr != x1 {
		t.Fatalf("Restrict must return x1 unchanged, got size %d", m.Size(gr))
	}
	if gc != x1 {
		// constrain(x1, x0): split at level 0: cT=1, cE=0 -> cofactor to
		// (x1 at x0=1) = x1. Both happen to agree here.
		t.Logf("note: constrain returned a different cover of size %d", m.Size(gc))
		if !m.Cover(gc, f, c) {
			t.Fatal("constrain result must still be a cover")
		}
	}
}

func TestConstrainImageProperty(t *testing.T) {
	// The special property of constrain noted in the paper's footnote 1:
	// image of f over care set c equals the range of the constrained
	// function: Img_{c}(f) = range(f ↓ c), checked by quantification on
	// random single-output functions: ∃x (c ∧ (y ≡ f)) == ∃x (y ≡ f↓c).
	rng := newRand(54)
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(4)
		m := New(n + 1) // variable n is the output variable y
		a, c := randTT(rng, n), randTT(rng, n)
		rc := c.build(m)
		if rc == Zero {
			continue
		}
		rf := a.build(m)
		y := m.MkVar(Var(n))
		xs := m.CubeVars(vars(n)...)
		img := m.AndExists(rc, m.Xnor(y, rf), xs)
		rng2 := m.Exists(m.Xnor(y, m.Constrain(rf, rc)), xs)
		if img != rng2 {
			t.Fatalf("constrain image property failed (trial %d)", trial)
		}
	}
}

// TestRangeMatchesRelation checks Range against the relational image: for
// random vectors F over x_0..x_5 (with constant and repeated entries) and
// random non-empty domains D, Range(F ↓ D, ys) over y_6..y_{6+k-1} must
// equal ∃x [D ∧ ∧_j (y_j ≡ F_j)]. Every other trial lists the ys out of
// order, which costs nodes but not correctness.
func TestRangeMatchesRelation(t *testing.T) {
	const nx, ny = 6, 6
	m := New(nx + ny)
	if r := m.Range(nil, nil); r != One {
		t.Fatalf("Range(nil, nil) = %d, want One", r)
	}
	rng := newRand(23)
	xs := m.CubeVars(vars(nx)...)
	for trial := 0; trial < 300; trial++ {
		d := randTT(rng, nx)
		if trial%2 == 0 {
			d = d.and(randTT(rng, nx)) // sparser domains
		}
		D := d.build(m)
		if D == Zero {
			continue
		}
		k := rng.Intn(ny + 1)
		fs := make([]Ref, k)
		for j := range fs {
			switch r := rng.Intn(6); {
			case r == 0:
				fs[j] = One
			case r == 1:
				fs[j] = Zero
			case r == 2 && j > 0:
				fs[j] = fs[rng.Intn(j)]
			default:
				fs[j] = randTT(rng, nx).build(m)
			}
		}
		ys := vars(nx + k)[nx:]
		if trial%2 == 1 {
			rng.Shuffle(len(ys), func(a, b int) { ys[a], ys[b] = ys[b], ys[a] })
		}
		rel := D
		cs := make([]Ref, k)
		for j, f := range fs {
			rel = m.And(rel, m.Xnor(m.MkVar(ys[j]), f))
			cs[j] = m.Constrain(f, D)
		}
		want := m.Exists(rel, xs)
		in := append([]Ref(nil), cs...)
		if got := m.Range(cs, ys); got != want {
			t.Fatalf("trial %d (%d functions): Range(F↓D) differs from ∃x[D·∏(y≡F)]", trial, k)
		}
		for j := range cs {
			if cs[j] != in[j] {
				t.Fatalf("trial %d: Range changed its argument at %d", trial, j)
			}
		}
	}
}
