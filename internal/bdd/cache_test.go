package bdd

import "testing"

// tinyCache builds the smallest cache, two slots, so colliding keys are
// easy to find.
func tinyCache() *computedCache {
	var c computedCache
	c.init(1)
	return &c
}

func TestCacheCollisionReplacesResident(t *testing.T) {
	c := tinyCache()
	c.insert(opITE, Ref(2), One, Zero, 0, Ref(100))
	// Find a constrain key that shares the ITE key's slot.
	f := Ref(4)
	for c.slot(opConstrain, f, Ref(6), 0, 0) != c.slot(opITE, Ref(2), One, Zero, 0) {
		f += 2
	}
	c.insert(opConstrain, f, Ref(6), 0, 0, Ref(200))
	if _, ok := c.lookup(opITE, Ref(2), One, Zero, 0); ok {
		t.Fatal("the resident entry must be replaced by the colliding insert")
	}
	if r, ok := c.lookup(opConstrain, f, Ref(6), 0, 0); !ok || r != Ref(200) {
		t.Fatalf("colliding insert not stored: ok=%v r=%v", ok, r)
	}
	if got := c.stats[opITE].evictions; got != 1 {
		t.Fatalf("ite evictions = %d, want 1 (charged to the displaced op)", got)
	}
	if got := c.stats[opConstrain].evictions; got != 0 {
		t.Fatalf("constrain evictions = %d, want 0", got)
	}
}

func TestCacheInsertSameKeyUpdatesInPlace(t *testing.T) {
	c := tinyCache()
	c.insert(opConstrain, Ref(2), Ref(4), 0, 0, Ref(6))
	c.insert(opConstrain, Ref(2), Ref(4), 0, 0, Ref(8))
	if r, ok := c.lookup(opConstrain, Ref(2), Ref(4), 0, 0); !ok || r != Ref(8) {
		t.Fatalf("re-insert must update: ok=%v r=%v", ok, r)
	}
	if got := c.stats[opConstrain].evictions; got != 0 {
		t.Fatalf("same-key update counted as eviction: %d", got)
	}
}

func TestCachePerOpCounters(t *testing.T) {
	m := New(6)
	f := m.Xor(m.MkVar(0), m.MkVar(1))
	g := m.And(m.MkVar(2), m.MkVar(3))
	m.FlushCaches()
	_ = m.And(f, g)
	_ = m.And(f, g) // the top-level triple at least must hit
	_ = m.Constrain(f, m.Or(g, m.MkVar(4)))
	stats := m.CacheStatsByOp()
	byOp := make(map[string]CacheOpStats, len(stats))
	for _, s := range stats {
		byOp[s.Op] = s
	}
	if s := byOp["ite"]; s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("ite counters must accumulate: %+v", s)
	}
	if s := byOp["constrain"]; s.Misses == 0 {
		t.Fatalf("constrain misses must accumulate: %+v", s)
	}
	m.FlushCaches()
	if got := m.CacheStatsByOp(); len(got) != 0 {
		t.Fatalf("FlushCaches must reset per-op stats, got %v", got)
	}
}

func TestCacheFlushPreservesResults(t *testing.T) {
	m := New(8)
	rng := newRand(77)
	a, b := randTT(rng, 8), randTT(rng, 8)
	fa, fb := a.build(m), b.build(m)
	want := m.ITE(fa, fb, fa.Not())
	m.FlushCaches()
	if got := m.ITE(fa, fb, fa.Not()); got != want {
		t.Fatal("results must be identical after a flush (canonicity)")
	}
}
