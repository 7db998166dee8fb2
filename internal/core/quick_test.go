package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bddmin/internal/bdd"
)

// quickISF is a generated instance for property-based tests: two truth
// tables over 5 variables, care set nonzero.
type quickISF struct {
	FBits uint32
	CBits uint32
}

// Generate implements quick.Generator with a bias toward sparse and dense
// care sets so both experiment buckets are exercised.
func (quickISF) Generate(r *rand.Rand, _ int) reflect.Value {
	f := uint32(r.Int63())
	c := uint32(r.Int63())
	switch r.Intn(3) {
	case 0:
		c &= uint32(r.Int63()) & uint32(r.Int63()) // sparse care
	case 1:
		c |= uint32(r.Int63()) | uint32(r.Int63()) // dense care
	}
	if c == 0 {
		c = 1
	}
	return reflect.ValueOf(quickISF{FBits: f, CBits: c})
}

func (q quickISF) build(m *bdd.Manager) ISF {
	vs := []bdd.Var{0, 1, 2, 3, 4}
	fv := make([]bool, 32)
	cv := make([]bool, 32)
	for i := 0; i < 32; i++ {
		fv[i] = q.FBits&(1<<i) != 0
		cv[i] = q.CBits&(1<<i) != 0
	}
	return ISF{F: m.FromTruthTable(vs, fv), C: m.FromTruthTable(vs, cv)}
}

var quickConfig = &quick.Config{MaxCount: 200}

// TestQuickEveryHeuristicCovers: the fundamental soundness property, as a
// quick property over biased random instances. Every heuristic also runs on
// a manager with a two-slot computed cache, where almost every probe
// collides, and must return the same function there: a cover never depends
// on a cache hit, including the match kernels' memoized verdicts.
func TestQuickEveryHeuristicCovers(t *testing.T) {
	heus := append(RegistryWithBounds(), &Scheduler{SkipLevelMatching: true}, &Robust{})
	vs := []bdd.Var{0, 1, 2, 3, 4}
	prop := func(q quickISF) bool {
		m := bdd.New(5)
		tiny := bdd.NewWithConfig(5, bdd.Config{CacheBits: 1})
		in, inTiny := q.build(m), q.build(tiny)
		for _, h := range heus {
			g, gTiny := h.Minimize(m, in.F, in.C), h.Minimize(tiny, inTiny.F, inTiny.C)
			if !in.Cover(m, g) {
				return false
			}
			if !reflect.DeepEqual(m.TruthTable(g, vs), tiny.TruthTable(gTiny, vs)) {
				t.Logf("%s: cover differs on a two-slot computed cache", h.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHierarchyAndICover: for random pairs, the criteria hierarchy
// holds and produced i-covers have monotone care sets.
func TestQuickHierarchyAndICover(t *testing.T) {
	prop := func(qa, qb quickISF, makeFree bool) bool {
		m := bdd.New(5)
		a, b := qa.build(m), qb.build(m)
		if makeFree {
			a.C = bdd.Zero
		}
		if OSDM.Matches(m, a, b) && !OSM.Matches(m, a, b) {
			return false
		}
		if OSM.Matches(m, a, b) && !TSM.Matches(m, a, b) {
			return false
		}
		for _, cr := range Criteria() {
			if !cr.Matches(m, a, b) {
				continue
			}
			ic := cr.ICover(m, a, b)
			if !m.Leq(b.C, ic.C) {
				return false
			}
			// ic.F is itself a cover of ic, hence must cover both inputs
			// (one concrete witness of the i-cover property).
			if !a.Cover(m, ic.F) || !b.Cover(m, ic.F) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConstrainRestrictFrameworkIdentity: the framework instantiation
// equals the classical operators on arbitrary instances.
func TestQuickConstrainRestrictFrameworkIdentity(t *testing.T) {
	constF := NewSiblingHeuristic(OSDM, false, false)
	restrF := NewSiblingHeuristic(OSDM, false, true)
	prop := func(q quickISF) bool {
		m := bdd.New(5)
		in := q.build(m)
		return constF.Minimize(m, in.F, in.C) == m.Constrain(in.F, in.C) &&
			restrF.Minimize(m, in.F, in.C) == m.Restrict(in.F, in.C)
	}
	if err := quick.Check(prop, quickConfig); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLowerBoundsSound: the lower bound stays below every heuristic
// result.
func TestQuickLowerBoundsSound(t *testing.T) {
	h := NewSiblingHeuristic(OSM, true, true)
	prop := func(q quickISF) bool {
		m := bdd.New(5)
		in := q.build(m)
		size := m.Size(h.Minimize(m, in.F, in.C))
		// Any heuristic result upper-bounds the minimum, which
		// upper-bounds the lower bound.
		return LowerBound(m, in.F, in.C) <= size
	}
	if err := quick.Check(prop, quickConfig); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWindowedTransformSound: windowed sibling matching plus a final
// constrain is always a cover, for arbitrary windows.
func TestQuickWindowedTransformSound(t *testing.T) {
	prop := func(q quickISF, loRaw, hiRaw uint8, crRaw uint8, compl, nnv bool) bool {
		m := bdd.New(5)
		in := q.build(m)
		lo := bdd.Var(loRaw % 5)
		hi := lo + bdd.Var(hiRaw%3)
		cr := Criteria()[int(crRaw)%3]
		out, _ := matchSiblingsWindow(m, cr, compl, nnv, in, lo, hi, true)
		if !m.Leq(in.C, out.C) {
			return false
		}
		var g bdd.Ref
		if out.C == bdd.Zero {
			g = out.F
		} else {
			g = m.Constrain(out.F, out.C)
		}
		return in.Cover(m, g)
	}
	if err := quick.Check(prop, quickConfig); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMinimizeSafeguard: the package-level entry point never returns
// something larger than f, and always a cover.
func TestQuickMinimizeSafeguard(t *testing.T) {
	prop := func(q quickISF) bool {
		m := bdd.New(5)
		in := q.build(m)
		g := Minimize(m, in.F, in.C)
		return in.Cover(m, g) && m.Size(g) <= m.Size(in.F)
	}
	if err := quick.Check(prop, quickConfig); err != nil {
		t.Fatal(err)
	}
}
