package bdd

import (
	"strings"
	"testing"
)

func TestSerializeRoundTrip(t *testing.T) {
	rng := newRand(70)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		m := New(n)
		a, b := randTT(rng, n), randTT(rng, n)
		fa, fb := a.build(m), b.build(m)
		var sb strings.Builder
		if err := m.WriteFunctions(&sb, map[string]Ref{"a": fa, "b": fb, "nb": fb.Not()}); err != nil {
			t.Fatal(err)
		}
		// Reload into a fresh manager and compare semantics.
		m2 := New(n)
		got, err := m2.ReadFunctions(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("reload: %v\n%s", err, sb.String())
		}
		sameFunction(t, m2, got["a"], a, "a")
		sameFunction(t, m2, got["b"], b, "b")
		if got["nb"] != got["b"].Not() {
			t.Fatal("complement relationship lost")
		}
		// Reload into the same manager: must unify with the originals.
		back, err := m.ReadFunctions(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		if back["a"] != fa || back["b"] != fb {
			t.Fatal("reload into the source manager must be identity")
		}
	}
}

func TestSerializePreservesSharing(t *testing.T) {
	m := New(4)
	shared := m.Xor(m.MkVar(2), m.MkVar(3))
	f := m.And(m.MkVar(0), shared)
	g := m.Or(m.MkVar(1), shared)
	var sb strings.Builder
	if err := m.WriteFunctions(&sb, map[string]Ref{"f": f, "g": g}); err != nil {
		t.Fatal(err)
	}
	m2 := New(4)
	got, err := m2.ReadFunctions(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if m2.SharedSize(got["f"], got["g"]) != m.SharedSize(f, g) {
		t.Fatal("sharing must survive serialization")
	}
}

func TestSerializeConstants(t *testing.T) {
	m := New(1)
	var sb strings.Builder
	if err := m.WriteFunctions(&sb, map[string]Ref{"one": One, "zero": Zero}); err != nil {
		t.Fatal(err)
	}
	got, err := New(1).ReadFunctions(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got["one"] != One || got["zero"] != Zero {
		t.Fatal("constants")
	}
}

func TestSerializeRejectsBadInput(t *testing.T) {
	m := New(2)
	cases := map[string]string{
		"bad header":      "nope 1\n",
		"bad version":     "bddmin-bdd 9\nvars 2\nnodes 0\nroots 0\n",
		"too many vars":   "bddmin-bdd 1\nvars 9\nnodes 0\nroots 0\n",
		"forward ref":     "bddmin-bdd 1\nvars 2\nnodes 1\n0 4 0\nroots 0\n",
		"bad level":       "bddmin-bdd 1\nvars 2\nnodes 1\n7 0 1\nroots 0\n",
		"order violation": "bddmin-bdd 1\nvars 2\nnodes 2\n1 0 1\n1 2 1\nroots 0\n",
		"truncated":       "bddmin-bdd 1\nvars 2\nnodes 3\n1 0 1\n",
		"negative count":  "bddmin-bdd 1\nvars 2\nnodes -1\nroots 0\n",
		// A header count far beyond the lines that follow must fail on the
		// missing lines, not try to allocate for the count up front.
		"huge count": "bddmin-bdd 1\nvars 0\nnodes 11111111111",
	}
	for name, src := range cases {
		if _, err := m.ReadFunctions(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if err := m.WriteFunctions(&strings.Builder{}, map[string]Ref{"bad name": One}); err == nil {
		t.Error("root names with spaces must be rejected")
	}
}

// TestSerializeCanonicalAcrossManagers is the property bddmind's shards
// rest on: managers with different construction histories, arena layouts,
// and variable counts must serialize structurally identical functions
// byte-identically (modulo the vars line).
func TestSerializeCanonicalAcrossManagers(t *testing.T) {
	rng := newRand(72)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		a, b := randTT(rng, n), randTT(rng, n)

		// Manager 1: clean build at exactly n variables.
		m1 := New(n)
		roots1 := map[string]Ref{"f": a.build(m1), "c": b.build(m1)}

		// Manager 2: wider, with a polluted arena (garbage built first, some
		// of it collected) so arena indexes differ wildly from m1's.
		m2 := New(n + 3)
		junk := randTT(rng, n+3).build(m2)
		m2.Protect(junk)
		randTT(rng, n+3).build(m2)
		m2.GC()
		roots2 := map[string]Ref{"f": a.build(m2), "c": b.build(m2)}

		var s1, s2 strings.Builder
		if err := m1.WriteFunctions(&s1, roots1); err != nil {
			t.Fatal(err)
		}
		if err := m2.WriteFunctions(&s2, roots2); err != nil {
			t.Fatal(err)
		}
		stripVars := func(s string) string {
			lines := strings.SplitN(s, "\n", 3)
			if len(lines) != 3 || !strings.HasPrefix(lines[1], "vars ") {
				t.Fatalf("unexpected serialization header: %q", s)
			}
			return lines[0] + "\n" + lines[2]
		}
		if stripVars(s1.String()) != stripVars(s2.String()) {
			t.Fatalf("trial %d: serializations differ across managers:\n%s\nvs\n%s", trial, s1.String(), s2.String())
		}
	}
}

func TestCheckInvariantsOnHealthyManagers(t *testing.T) {
	rng := newRand(71)
	m := New(8)
	for i := 0; i < 30; i++ {
		f := randTT(rng, 8).build(m)
		if i%3 == 0 {
			m.Protect(f)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.GC()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after GC: %v", err)
	}
	// Allocate into freed slots and re-check.
	for i := 0; i < 10; i++ {
		randTT(rng, 8).build(m)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after reuse: %v", err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	m := New(3)
	f := m.And(m.MkVar(0), m.MkVar(1))
	_ = f
	// Corrupt a node's high edge to be complemented.
	idx := f.index()
	m.nodes[idx].high = m.nodes[idx].high.Not()
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("complemented high edge must be detected")
	}
	m.nodes[idx].high = m.nodes[idx].high.Not() // restore
	if err := m.CheckInvariants(); err != nil {
		t.Fatal("restore failed")
	}
	// Corrupt the live counter.
	m.live++
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("bad live count must be detected")
	}
	m.live--
}
