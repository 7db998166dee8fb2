package core

import (
	"testing"

	"bddmin/internal/bdd"
)

// TestWindowTransformationIsICover: the windowed sibling matcher returns
// an i-cover of its input — every cover of the output covers the input.
func TestWindowTransformationIsICover(t *testing.T) {
	rng := newRand(400)
	for trial := 0; trial < 60; trial++ {
		n := 3
		m := bdd.New(n)
		in := randISF(rng, m, n)
		for _, cr := range Criteria() {
			for lo := 0; lo < n; lo++ {
				for hi := lo; hi < n; hi++ {
					out, _ := matchSiblingsWindow(m, cr, trial%2 == 0, trial%3 == 0, in, bdd.Var(lo), bdd.Var(hi), true)
					allCovers(m, out, n, func(g bdd.Ref) {
						if !in.Cover(m, g) {
							t.Fatalf("%v window [%d,%d]: output cover is not an input cover", cr, lo, hi)
						}
					})
				}
			}
		}
	}
}

// TestWindowBelowLeavesUntouched: a window entirely above the instance's
// support leaves the pair unchanged when the roots are below it.
func TestWindowBelowLeavesUntouched(t *testing.T) {
	m := bdd.New(6)
	// Instance living entirely in levels 3..5.
	f := m.Or(m.And(m.MkVar(3), m.MkVar(4)), m.MkVar(5))
	c := m.Xor(m.MkVar(3), m.MkVar(5))
	in := ISF{f, c}
	out, _ := matchSiblingsWindow(m, TSM, true, true, in, 0, 2, true)
	if out != in {
		t.Fatal("window above the support must not change the instance")
	}
}

// TestWindowFullEqualsGreedy: with the full window and the care set
// consumed to One... the windowed matcher does not produce a final cover,
// but chaining it with constrain must produce a cover whose size is at
// most what constrain achieves alone when the criterion already matched
// everything (sanity of composition).
func TestWindowComposesWithConstrain(t *testing.T) {
	rng := newRand(401)
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(4)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		out, _ := matchSiblingsWindow(m, OSM, true, true, in, 0, bdd.Var(n-1), true)
		var g bdd.Ref
		if out.C == bdd.Zero {
			g = out.F
		} else {
			g = m.Constrain(out.F, out.C)
		}
		requireCover(t, m, g, in, "window+constrain")
	}
}

// TestWindowMonotoneCare: windowed matching only consumes freedom — the
// care set of the output contains the care set of the input.
func TestWindowMonotoneCare(t *testing.T) {
	rng := newRand(402)
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(4)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		for _, cr := range Criteria() {
			out, _ := matchSiblingsWindow(m, cr, true, false, in, 0, bdd.Var(n-1), true)
			if !m.Leq(in.C, out.C) {
				t.Fatalf("%v: window transformation enlarged the DC set", cr)
			}
		}
	}
}

// TestSchedulerConfigNames: parameter encoding in the name.
func TestSchedulerConfigNames(t *testing.T) {
	if (&Scheduler{}).Name() != "sched_w4_s0" {
		t.Fatalf("default name = %q", (&Scheduler{}).Name())
	}
	s := &Scheduler{WindowSize: 2, StopTopDown: 3, SkipLevelMatching: true}
	if s.Name() != "sched_w2_s3_nolv" {
		t.Fatalf("name = %q", s.Name())
	}
}

// TestSchedulerReturnsCoversAcrossConfigs: soundness over the parameter
// grid the ablation bench sweeps.
func TestSchedulerReturnsCoversAcrossConfigs(t *testing.T) {
	rng := newRand(403)
	configs := []*Scheduler{
		{},
		{WindowSize: 1},
		{WindowSize: 2, StopTopDown: 2},
		{WindowSize: 8, SkipLevelMatching: true},
		{WindowSize: 3, StopTopDown: 1},
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		for _, s := range configs {
			g := s.Minimize(m, in.F, in.C)
			requireCover(t, m, g, in, s.Name())
		}
	}
}

// TestSchedulerOnCubeCare: when c is a cube the final constrain stage
// guarantees the minimum (Theorem 7), regardless of window settings,
// because the earlier stages only consume freedom into i-covers.
func TestSchedulerOnCubeCare(t *testing.T) {
	rng := newRand(404)
	for trial := 0; trial < 40; trial++ {
		n := 3
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
		s := &Scheduler{SkipLevelMatching: true}
		g := s.Minimize(m, f, c)
		requireCover(t, m, g, ISF{f, c}, "scheduler")
	}
}

// TestWindowSequenceConsumesAllLevels: running windows over the whole
// range one level at a time and finishing with constrain behaves like a
// complete heuristic; cross-check against the scheduler with the same
// parameters.
func TestWindowSequenceConsumesAllLevels(t *testing.T) {
	rng := newRand(405)
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(3)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		cur := in
		for lo := 0; lo < n; lo++ {
			cur, _ = matchSiblingsWindow(m, OSM, false, true, cur, bdd.Var(lo), bdd.Var(lo), true)
			cur, _ = matchSiblingsWindow(m, TSM, false, false, cur, bdd.Var(lo), bdd.Var(lo), true)
		}
		var g bdd.Ref
		if cur.C == bdd.Zero {
			g = cur.F
		} else {
			g = m.Constrain(cur.F, cur.C)
		}
		requireCover(t, m, g, in, "manual window sequence")
		s := &Scheduler{WindowSize: 1, SkipLevelMatching: true}
		requireCover(t, m, s.Minimize(m, in.F, in.C), in, "scheduler w1")
	}
}

// TestWindowComplMatchPair: the complement match inside a window keeps
// the parent and produces a branch-complementary pair.
func TestWindowComplMatchPair(t *testing.T) {
	m := bdd.New(3)
	// f = ite(x0, g, ¬g); the else branch keeps partial care (so the
	// plain all-don't-care match cannot fire) but complement-matches the
	// then branch.
	g := m.And(m.MkVar(1), m.MkVar(2))
	f := m.ITE(m.MkVar(0), g, g.Not())
	c := m.Or(m.MkVar(0), m.MkVar(1)) // cT = 1, cE = x1 ≠ 0
	in := ISF{F: f, C: c}
	out, _ := matchSiblingsWindow(m, OSM, true, false, in, 0, 0, true)
	// The result's function part must still be of the ite(x0, h, ¬h) shape.
	hi, lo := m.Branches(out.F)
	if m.TopVar(out.F) != 0 || hi != lo.Not() {
		t.Fatalf("complement match must produce branch-complementary pair")
	}
	allCovers(m, out, 3, func(gg bdd.Ref) {
		if !in.Cover(m, gg) {
			t.Fatal("compl-match window output must be an i-cover")
		}
	})
}
