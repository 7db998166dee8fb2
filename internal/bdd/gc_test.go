package bdd

import (
	"strings"
	"testing"
)

func TestGCKeepsRootsCollectsGarbage(t *testing.T) {
	m := New(8)
	rng := newRand(60)
	keepTT := randTT(rng, 8)
	keep := keepTT.build(m)
	m.Protect(keep)
	sizeKeep := m.Size(keep)

	// Create garbage.
	for i := 0; i < 50; i++ {
		w := randTT(rng, 8)
		_ = w.build(m)
	}
	before := m.NumNodes()
	collected := m.GC()
	if collected == 0 {
		t.Fatal("expected garbage to be collected")
	}
	if m.NumNodes() != before-collected {
		t.Fatalf("node accounting: %d != %d - %d", m.NumNodes(), before, collected)
	}
	if m.NumNodes() != sizeKeep {
		t.Fatalf("after GC %d nodes live, want %d (protected diagram)", m.NumNodes(), sizeKeep)
	}
	// The kept function is still intact and canonical.
	back := keepTT.build(m)
	if back != keep {
		t.Fatal("protected function must survive GC with identity preserved")
	}
	if m.NumNodes() != sizeKeep {
		t.Fatal("rebuilding the kept function must not allocate")
	}
	m.Unprotect(keep)
}

func TestGCExtraRoots(t *testing.T) {
	m := New(6)
	rng := newRand(61)
	w := randTT(rng, 6)
	f := w.build(m)
	m.GC(f) // not protected, but passed as an extra root
	if got := w.build(m); got != f {
		t.Fatal("extra root must survive the collection")
	}
}

func TestGCReusesSlots(t *testing.T) {
	m := New(6)
	rng := newRand(62)
	for i := 0; i < 20; i++ {
		_ = randTT(rng, 6).build(m)
	}
	m.GC()
	grew := len(m.nodes)
	for i := 0; i < 20; i++ {
		_ = randTT(rng, 6).build(m)
		m.GC()
	}
	if len(m.nodes) > grew*2 {
		t.Fatalf("arena grew from %d to %d despite GC slot reuse", grew, len(m.nodes))
	}
}

func TestProtectNesting(t *testing.T) {
	m := New(4)
	f := m.And(m.MkVar(0), m.MkVar(1))
	m.Protect(f)
	m.Protect(f)
	m.Unprotect(f)
	m.GC()
	if m.And(m.MkVar(0), m.MkVar(1)) != f {
		t.Fatal("still-protected function must survive")
	}
	m.Unprotect(f)
	defer func() {
		if recover() == nil {
			t.Fatal("Unprotect of unprotected ref must panic")
		}
	}()
	m.Unprotect(f)
}

func TestProtectComplementPair(t *testing.T) {
	m := New(4)
	f := m.Xor(m.MkVar(0), m.MkVar(1))
	m.Protect(f.Not()) // protecting the complement protects the node
	m.GC()
	if m.Xor(m.MkVar(0), m.MkVar(1)) != f {
		t.Fatal("complement protection must keep the shared node")
	}
	m.Unprotect(f) // complements share the protection entry
}

func TestFlushCachesKeepsSemantics(t *testing.T) {
	m := New(6)
	rng := newRand(63)
	a, b := randTT(rng, 6), randTT(rng, 6)
	fa, fb := a.build(m), b.build(m)
	r1 := m.And(fa, fb)
	m.FlushCaches()
	if st := m.CacheStatsByOp(); len(st) != 0 {
		t.Fatalf("FlushCaches must reset statistics, got %v", st)
	}
	if m.And(fa, fb) != r1 {
		t.Fatal("results must be unchanged after a cache flush")
	}
}

func TestGCStress(t *testing.T) {
	// Interleave building, protecting, collecting; verify a pinned set of
	// functions by truth table at the end.
	m := New(7)
	rng := newRand(64)
	var kept []Ref
	var keptTT []tt
	for round := 0; round < 30; round++ {
		w := randTT(rng, 7)
		f := w.build(m)
		if round%3 == 0 {
			m.Protect(f)
			kept = append(kept, f)
			keptTT = append(keptTT, w)
		}
		// garbage
		_ = m.Xor(f, randTT(rng, 7).build(m))
		if round%5 == 4 {
			m.GC()
		}
	}
	m.GC()
	for i, f := range kept {
		sameFunction(t, m, f, keptTT[i], "kept after GC stress")
	}
}

func TestDotOutput(t *testing.T) {
	m := New(3)
	m.SetVarName(0, "a")
	f := m.Or(m.And(m.MkVar(0), m.MkVar(1)), m.MkNotVar(2))
	var sb strings.Builder
	if err := m.WriteDot(&sb, map[string]Ref{"f": f, "g": f.Not()}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph BDD", "\"a\"", "shape=box", "root0", "root1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}
