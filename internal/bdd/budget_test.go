package bdd

import (
	"context"
	"errors"
	"testing"
	"time"
)

// buildHard returns a pair of moderately large random functions over n vars.
func buildHard(t *testing.T, m *Manager, n int, seed int64) (Ref, Ref) {
	t.Helper()
	rng := newRand(seed)
	f := randTT(rng, n).build(m)
	g := randTT(rng, n).build(m)
	return f, g
}

func TestBudgetFailAfterDeterministic(t *testing.T) {
	m := New(10)
	f, g := buildHard(t, m, 10, 1)
	h := randTT(newRand(2), 10).build(m)

	run := func(failAfter uint64) error {
		m2 := New(10)
		f2 := m.TruthTable(f, vars(10))
		g2 := m.TruthTable(g, vars(10))
		h2 := m.TruthTable(h, vars(10))
		ff := m2.FromTruthTable(vars(10), f2)
		gg := m2.FromTruthTable(vars(10), g2)
		hh := m2.FromTruthTable(vars(10), h2)
		return m2.RunBudgeted(&Budget{FailAfter: failAfter}, func() { m2.ITE(ff, gg, hh) })
	}
	err1 := run(100)
	err2 := run(100)
	if err1 == nil || err2 == nil {
		t.Fatalf("expected deterministic aborts, got %v / %v", err1, err2)
	}
	var a1, a2 *AbortError
	if !errors.As(err1, &a1) || !errors.As(err2, &a2) {
		t.Fatalf("expected AbortError, got %T / %T", err1, err2)
	}
	if a1.Steps != a2.Steps || a1.Reason != AbortFault {
		t.Fatalf("fault injection not deterministic: %+v vs %+v", a1, a2)
	}
	if !errors.Is(err1, ErrBudgetExceeded) {
		t.Fatalf("fault abort should wrap ErrBudgetExceeded, got %v", err1)
	}
}

func TestBudgetMaxNodesMade(t *testing.T) {
	m := New(12)
	f, g := buildHard(t, m, 12, 3)
	base := m.NodesMade()
	b := &Budget{MaxNodesMade: 50, CheckEvery: 8}
	err := m.RunBudgeted(b, func() { m.Xor(f, g) })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected ErrBudgetExceeded, got %v", err)
	}
	var a *AbortError
	if !errors.As(err, &a) || a.Reason != AbortNodesMade {
		t.Fatalf("expected nodes-made abort, got %v", err)
	}
	// The amortized check bounds the overshoot by one interval of steps.
	if made := m.NodesMade() - base; made > 50+8 {
		t.Fatalf("overshoot too large: made %d nodes against a budget of 50 (interval 8)", made)
	}
	if m.Budget() != nil {
		t.Fatal("RunBudgeted must restore the previous (nil) budget")
	}
}

func TestBudgetMaxLiveNodes(t *testing.T) {
	m := New(12)
	f, g := buildHard(t, m, 12, 4)
	live := m.NumNodes()
	b := &Budget{MaxLiveNodes: live + 20, CheckEvery: 4}
	err := m.RunBudgeted(b, func() { m.Xor(f, g) })
	if err == nil {
		t.Skip("xor stayed within 20 nodes; function too easy for this seed")
	}
	var a *AbortError
	if !errors.As(err, &a) || a.Reason != AbortLiveNodes {
		t.Fatalf("expected live-nodes abort, got %v", err)
	}
	if a.LiveNodes <= live {
		t.Fatalf("abort recorded implausible live count %d (baseline %d)", a.LiveNodes, live)
	}
}

func TestBudgetContextCancel(t *testing.T) {
	m := New(12)
	f, g := buildHard(t, m, 12, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: first amortized check must abort
	b := &Budget{Ctx: ctx, CheckEvery: 2}
	err := m.RunBudgeted(b, func() { m.Xor(f, g) })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
	var a *AbortError
	if !errors.As(err, &a) || a.Reason != AbortContext {
		t.Fatalf("expected context abort, got %v", err)
	}
}

func TestBudgetDeadline(t *testing.T) {
	m := New(12)
	f, g := buildHard(t, m, 12, 6)
	b := &Budget{Deadline: time.Now().Add(-time.Second), CheckEvery: 2}
	err := m.RunBudgeted(b, func() { m.Xor(f, g) })
	var a *AbortError
	if !errors.As(err, &a) || a.Reason != AbortDeadline {
		t.Fatalf("expected deadline abort, got %v", err)
	}
}

// TestBudgetAbortLeavesManagerConsistent is the core safety property: after
// an abort at an arbitrary op count, the arena, unique table and caches
// must still be usable, GC must reclaim the partial results, and repeating
// the computation without a budget must give the correct answer.
func TestBudgetAbortLeavesManagerConsistent(t *testing.T) {
	rng := newRand(7)
	ftt, gtt := randTT(rng, 10), randTT(rng, 10)
	want := ftt.xor(gtt)
	for _, failAfter := range []uint64{1, 2, 3, 5, 17, 100, 1000} {
		m := New(10)
		f := ftt.build(m)
		g := gtt.build(m)
		m.Protect(f)
		m.Protect(g)
		m.GC()
		baseline := m.NumNodes()
		err := m.RunBudgeted(&Budget{FailAfter: failAfter}, func() { m.ITE(f, g.Not(), g) })
		if err == nil {
			// Budget generous enough for the whole computation.
			continue
		}
		// The manager must be reusable immediately, with no budget attached.
		r := m.Xor(f, g)
		sameFunction(t, m, r, want, "xor after abort")
		m.GC()
		if n := m.NumNodes(); n < baseline {
			t.Fatalf("failAfter=%d: GC collected protected nodes: %d < baseline %d", failAfter, n, baseline)
		}
		m.Unprotect(f)
		m.Unprotect(g)
	}
}

func TestBudgetedNoBudget(t *testing.T) {
	m := New(8)
	f, g := buildHard(t, m, 8, 9)
	var r Ref
	if err := m.Budgeted(func() { r = m.ITE(f, g, Zero) }); err != nil {
		t.Fatalf("ITE without budget errored: %v", err)
	}
	if r != m.And(f, g) {
		t.Fatal("ITE result mismatch")
	}
	if err := m.Budgeted(func() { m.Constrain(f, m.Or(g, f)) }); err != nil {
		t.Fatalf("Constrain: %v", err)
	}
	var ok bool
	if err := m.Budgeted(func() { ok = m.MatchTSM(f, One, f, One) }); err != nil || !ok {
		t.Fatalf("MatchTSM: ok=%v err=%v", ok, err)
	}
}

func TestRunBudgetedRestoresOuterBudget(t *testing.T) {
	m := New(8)
	outer := &Budget{MaxNodesMade: 1 << 40}
	m.SetBudget(outer)
	inner := &Budget{FailAfter: 1}
	err := m.RunBudgeted(inner, func() { m.MkVar(0) })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("inner budget did not trip: %v", err)
	}
	if m.Budget() != outer {
		t.Fatal("outer budget not restored after nested RunBudgeted")
	}
	// Nil budget inherits the outer one.
	if err := m.RunBudgeted(nil, func() { m.MkVar(1) }); err != nil {
		t.Fatalf("inherited generous budget should not trip: %v", err)
	}
	m.SetBudget(nil)
}

func TestBudgetedRepanicsForeignPanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Budgeted swallowed a non-budget panic")
		}
	}()
	_ = m.Budgeted(func() { panic("unrelated") })
}
