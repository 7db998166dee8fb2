package core

import (
	"testing"

	"bddmin/internal/bdd"
)

// TestTable1CriteriaProperties verifies the reflexive / symmetric /
// transitive properties of the three matching criteria exactly as listed
// in Table 1 of the paper, both against the declared property methods and
// empirically on random instances.
func TestTable1CriteriaProperties(t *testing.T) {
	want := map[Criterion][3]bool{ // reflexive, symmetric, transitive
		OSDM: {false, false, true},
		OSM:  {true, false, true},
		TSM:  {true, true, false},
	}
	for cr, w := range want {
		if cr.Reflexive() != w[0] || cr.Symmetric() != w[1] || cr.Transitive() != w[2] {
			t.Errorf("%v: declared properties disagree with Table 1", cr)
		}
	}

	rng := newRand(100)
	// Positive direction: properties that hold must never be violated.
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(3)
		m := bdd.New(n)
		a, b, c := randISF(rng, m, n), randISF(rng, m, n), randISF(rng, m, n)
		for _, cr := range Criteria() {
			if cr.Reflexive() && !cr.Matches(m, a, a) {
				t.Fatalf("%v must be reflexive", cr)
			}
			if cr.Symmetric() && cr.Matches(m, a, b) != cr.Matches(m, b, a) {
				t.Fatalf("%v must be symmetric", cr)
			}
			if cr.Transitive() && cr.Matches(m, a, b) && cr.Matches(m, b, c) && !cr.Matches(m, a, c) {
				t.Fatalf("%v must be transitive", cr)
			}
		}
	}

	// Negative direction: find witnesses that the absent properties
	// really are absent (so the criteria are not accidentally stronger).
	m := bdd.New(2)
	full := ISF{F: m.MkVar(0), C: bdd.One}
	if OSDM.Matches(m, full, full) {
		t.Error("osdm must not be reflexive on a fully specified function")
	}
	free := ISF{F: bdd.Zero, C: bdd.Zero}
	if !OSDM.Matches(m, free, full) || OSDM.Matches(m, full, free) {
		t.Error("osdm asymmetry witness failed")
	}
	// osm asymmetry: a has more don't cares than b.
	aw := ISF{F: m.MkVar(0), C: m.MkVar(1)}
	bw := ISF{F: m.MkVar(0), C: bdd.One}
	if !OSM.Matches(m, aw, bw) || OSM.Matches(m, bw, aw) {
		t.Error("osm asymmetry witness failed")
	}
	// tsm intransitivity: x matches free, free matches !x, but x never
	// matches !x.
	x := ISF{F: m.MkVar(0), C: bdd.One}
	nx := ISF{F: m.MkVar(0).Not(), C: bdd.One}
	if !TSM.Matches(m, x, free) || !TSM.Matches(m, free, nx) || TSM.Matches(m, x, nx) {
		t.Error("tsm intransitivity witness failed")
	}
}

// TestCriteriaHierarchy checks the strength hierarchy: an osdm match
// implies an osm match, which implies a tsm match.
func TestCriteriaHierarchy(t *testing.T) {
	rng := newRand(101)
	sawOSDM, sawOSM := false, false
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(3)
		m := bdd.New(n)
		a, b := randISF(rng, m, n), randISF(rng, m, n)
		if rng.Intn(4) == 0 {
			a.C = bdd.Zero // force osdm matches to occur
		}
		if OSDM.Matches(m, a, b) {
			sawOSDM = true
			if !OSM.Matches(m, a, b) {
				t.Fatal("osdm match must imply osm match")
			}
		}
		if OSM.Matches(m, a, b) {
			sawOSM = true
			if !TSM.Matches(m, a, b) {
				t.Fatal("osm match must imply tsm match")
			}
		}
	}
	if !sawOSDM || !sawOSM {
		t.Fatal("hierarchy test never exercised a match; weaken the generator")
	}
}

// TestICoverProperty: when a matches b, every cover of the produced
// i-cover must cover both a and b (the definition of a common i-cover).
func TestICoverProperty(t *testing.T) {
	rng := newRand(102)
	checked := 0
	for trial := 0; trial < 800 && checked < 120; trial++ {
		n := 2 + rng.Intn(2)
		m := bdd.New(n)
		a, b := randISF(rng, m, n), randISF(rng, m, n)
		if rng.Intn(4) == 0 {
			a.C = bdd.Zero
		}
		for _, cr := range Criteria() {
			if !cr.Matches(m, a, b) {
				continue
			}
			checked++
			ic := cr.ICover(m, a, b)
			allCovers(m, ic, n, func(g bdd.Ref) {
				if !a.Cover(m, g) {
					t.Fatalf("%v: cover of i-cover does not cover a", cr)
				}
				if !b.Cover(m, g) {
					t.Fatalf("%v: cover of i-cover does not cover b", cr)
				}
			})
		}
	}
	if checked < 50 {
		t.Fatalf("only %d matches exercised", checked)
	}
}

// TestICoverMonotoneCare: the care function of the common i-cover contains
// both care functions (Section 3.1: "the size of the DC set monotonically
// decreases").
func TestICoverMonotoneCare(t *testing.T) {
	rng := newRand(103)
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(3)
		m := bdd.New(n)
		a, b := randISF(rng, m, n), randISF(rng, m, n)
		for _, cr := range Criteria() {
			if !cr.Matches(m, a, b) {
				continue
			}
			ic := cr.ICover(m, a, b)
			if !m.Leq(b.C, ic.C) {
				t.Fatalf("%v: i-cover care set must contain cj", cr)
			}
			if cr == TSM && !m.Leq(a.C, ic.C) {
				t.Fatal("tsm: i-cover care set must contain both care sets")
			}
		}
	}
}

// TestTSMICoverKeepsEqualFunctions: the maximal-DC rule — when the two
// function parts are identical, no don't care needs to be assigned, so the
// i-cover keeps the function part and unions the care sets. This is what
// makes no-new-vars a no-op for TSM (Table 2, rows 10 and 12).
func TestTSMICoverKeepsEqualFunctions(t *testing.T) {
	m := bdd.New(3)
	f := m.Xor(m.MkVar(1), m.MkVar(2))
	a := ISF{F: f, C: m.MkVar(1)}
	b := ISF{F: f, C: m.MkVar(2)}
	ic := TSM.ICover(m, a, b)
	if ic.F != f {
		t.Fatal("tsm i-cover of equal function parts must keep the function part")
	}
	if ic.C != m.Or(m.MkVar(1), m.MkVar(2)) {
		t.Fatal("tsm i-cover care set must be the union")
	}
}

func TestCriterionString(t *testing.T) {
	if OSDM.String() != "osdm" || OSM.String() != "osm" || TSM.String() != "tsm" {
		t.Fatal("criterion names")
	}
	if Criterion(99).String() != "invalid" {
		t.Fatal("invalid criterion name")
	}
}

func TestTrivialCases(t *testing.T) {
	m := bdd.New(3)
	f := m.Or(m.MkVar(0), m.MkVar(1))
	// c inside the onset: cover One.
	in := ISF{F: f, C: m.And(f, m.MkVar(2))}
	if g, ok := in.Trivial(m); !ok || g != bdd.One {
		t.Fatal("care set inside onset must yield One")
	}
	// c inside the offset: cover Zero.
	in = ISF{F: f, C: m.AndNot(m.MkVar(2), f)}
	if g, ok := in.Trivial(m); !ok || g != bdd.Zero {
		t.Fatal("care set inside offset must yield Zero")
	}
	// empty care set.
	in = ISF{F: f, C: bdd.Zero}
	if _, ok := in.Trivial(m); !ok {
		t.Fatal("empty care set is trivial")
	}
	// genuinely mixed instance.
	in = ISF{F: m.MkVar(0), C: bdd.One}
	if _, ok := in.Trivial(m); ok {
		t.Fatal("fully specified nonconstant instance is not trivial")
	}
}

func TestInterval(t *testing.T) {
	m := bdd.New(2)
	fmin := m.And(m.MkVar(0), m.MkVar(1))
	fmax := m.Or(m.MkVar(0), m.MkVar(1))
	in := Interval(m, fmin, fmax)
	// Covers of the interval are exactly functions between fmin and fmax.
	allCovers(m, in, 2, func(g bdd.Ref) {
		if !m.Leq(fmin, g) || !m.Leq(g, fmax) {
			t.Fatal("interval cover outside bounds")
		}
	})
	if !in.Cover(m, fmin) || !in.Cover(m, fmax) || !in.Cover(m, m.MkVar(0)) {
		t.Fatal("interval endpoints and midpoints must cover")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Interval must reject fmin not below fmax")
		}
	}()
	Interval(m, fmax, fmin.Not())
}
