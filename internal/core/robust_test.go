package core

import (
	"testing"

	"bddmin/internal/bdd"
)

func TestRobustReturnsCoversNeverLargerThanF(t *testing.T) {
	rng := newRand(600)
	r := &Robust{}
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(4)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		g := r.Minimize(m, in.F, in.C)
		requireCover(t, m, g, in, "robust")
		if m.Size(g) > m.Size(in.F) {
			t.Fatal("robust must never exceed |f|")
		}
	}
}

func TestRobustNeverWorseThanOsmBt(t *testing.T) {
	rng := newRand(601)
	r := &Robust{OnsetThreshold: -1} // always include level matching
	bt := NewSiblingHeuristic(OSM, true, true)
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(4)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		rg := r.Minimize(m, in.F, in.C)
		bg := bt.Minimize(m, in.F, in.C)
		if m.Size(rg) > m.Size(bg) {
			t.Fatalf("robust (%d) worse than osm_bt (%d)", m.Size(rg), m.Size(bg))
		}
	}
}

func TestRobustThresholdControlsLevelMatching(t *testing.T) {
	// With threshold 1.0 (never trigger level matching on non-tautology
	// care sets), robust reduces to osm_bt + safeguard.
	rng := newRand(602)
	r := &Robust{OnsetThreshold: 1.0}
	bt := NewSiblingHeuristic(OSM, true, true)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		rg := r.Minimize(m, in.F, in.C)
		bg := bt.Minimize(m, in.F, in.C)
		want := in.F // ties keep f (the safeguard is the baseline)
		if m.Size(bg) < m.Size(in.F) {
			want = bg
		}
		if rg != want {
			t.Fatal("threshold=1.0 must reduce robust to osm_bt + safeguard")
		}
	}
}

func TestRobustPanicsOnEmptyCare(t *testing.T) {
	m := bdd.New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("robust must panic on empty care set")
		}
	}()
	(&Robust{}).Minimize(m, m.MkVar(0), bdd.Zero)
}
