package bdd

import (
	"math"
	"testing"
)

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1 << 12: 1 << 12, (1 << 12) + 1: 1 << 13}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Fatalf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
	// Absurd requests saturate instead of overflowing the shift into an
	// infinite loop (p <<= 1 wraps negative on the old code).
	for _, in := range []int{maxBuckets, maxBuckets + 1, math.MaxInt} {
		if got := ceilPow2(in); got != maxBuckets {
			t.Fatalf("ceilPow2(%d) = %d, want cap %d", in, got, maxBuckets)
		}
	}
}

func TestConfigNormalization(t *testing.T) {
	// Defaults.
	c := Config{}.normalize()
	if c.InitialBuckets != 1<<12 || c.CacheBits != 14 {
		t.Fatalf("zero config normalized to %+v", c)
	}
	// Negatives fall back to defaults.
	c = Config{InitialBuckets: -5, CacheBits: -1}.normalize()
	if c.InitialBuckets != 1<<12 || c.CacheBits != 14 {
		t.Fatalf("negative config normalized to %+v", c)
	}
	// Non-powers round up; absurd values are capped rather than allocated.
	c = Config{InitialBuckets: 3000, CacheBits: 20}.normalize()
	if c.InitialBuckets != 4096 || c.CacheBits != 20 {
		t.Fatalf("config normalized to %+v", c)
	}
	c = Config{InitialBuckets: math.MaxInt, CacheBits: 99}.normalize()
	if c.InitialBuckets != maxBuckets || c.CacheBits != maxCacheBits {
		t.Fatalf("absurd config normalized to %+v", c)
	}
	// A capped manager still works.
	m := NewWithConfig(2, Config{InitialBuckets: 1 << 4, CacheBits: 99})
	if m.Xor(m.MkVar(0), m.MkVar(1)) == Zero {
		t.Fatal("manager with capped config broken")
	}
}

func TestStampGenerationWrap(t *testing.T) {
	m := New(8)
	rng := newRand(90)
	w := randTT(rng, 8)
	f := w.build(m)
	size := m.Size(f)
	sup := m.Support(f)
	dens := m.Density(f)
	// Force the 32-bit generation counter over the wrap mid-sequence; every
	// walk across it must still see a clean visited set.
	m.stampGen = ^uint32(0) - 3
	for i := 0; i < 8; i++ {
		if got := m.Size(f); got != size {
			t.Fatalf("walk %d after wrap: Size = %d, want %d", i, got, size)
		}
		if got := m.Density(f); got != dens {
			t.Fatalf("walk %d after wrap: Density = %v, want %v", i, got, dens)
		}
		got := m.Support(f)
		if len(got) != len(sup) {
			t.Fatalf("walk %d after wrap: Support = %v, want %v", i, got, sup)
		}
	}
	if m.stampGen >= ^uint32(0)-3 {
		t.Fatal("test must actually cross the wrap")
	}
}

// TestGCRehashRecycleInterplay interleaves garbage collection, unique-table
// growth and node recycling — the paths that now share the generation-stamp
// scratch — and asserts the manager stays canonical throughout: mkNode
// returns identical Refs for identical triples, and every structural
// invariant holds.
func TestGCRehashRecycleInterplay(t *testing.T) {
	// A tiny initial table forces growBuckets (and its rehash over a
	// populated free list) during normal building.
	m := NewWithConfig(8, Config{InitialBuckets: 4})
	rng := newRand(91)
	var kept []Ref
	var keptTT []tt
	for round := 0; round < 40; round++ {
		w := randTT(rng, 8)
		f := w.build(m)
		if round%4 == 0 {
			m.Protect(f)
			kept = append(kept, f)
			keptTT = append(keptTT, w)
		}
		// Transient garbage, so GC leaves recycled slots behind.
		_ = m.Xor(f, randTT(rng, 8).build(m))
		if round%3 == 2 {
			m.GC()
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	m.GC()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after final GC: %v", err)
	}
	// Canonicity: rebuilding the protected functions must hash-cons onto
	// the surviving nodes — identical Refs, no new allocations.
	made := m.NodesMade()
	for i, f := range kept {
		if got := keptTT[i].build(m); got != f {
			t.Fatalf("kept function %d lost canonicity across GC/rehash/recycle", i)
		}
		sameFunction(t, m, f, keptTT[i], "kept after interplay stress")
	}
	if m.NodesMade() != made {
		t.Fatalf("rebuilding kept functions allocated %d nodes", m.NodesMade()-made)
	}
	for _, f := range kept {
		m.Unprotect(f)
	}
}
