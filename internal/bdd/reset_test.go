package bdd

import (
	"reflect"
	"testing"
)

// resetTrace is everything observable about a workload run: its Refs and
// the manager's counters afterwards.
type resetTrace struct {
	Refs      []Ref
	Verdicts  []bool
	Sigs      []uint64
	NodesMade uint64
	NumNodes  int
	Buckets   int
	GCRuns    int
	Protected int
	CacheOps  []CacheOpStats
	SigStats  SigStats
	Names     []string
	HasBudget bool
}

// resetWorkload runs a fixed ITE/constrain/restrict/exists/match sequence,
// with a GC in the middle so free-list reuse is part of what is compared.
func resetWorkload(t *testing.T, m *Manager, n int) resetTrace {
	t.Helper()
	var tr resetTrace
	tr.HasBudget = m.Budget() != nil
	for v := 0; v < n; v++ {
		tr.Names = append(tr.Names, m.VarName(Var(v)))
	}
	rng := newRand(4242)
	var fs []Ref
	for i := 0; i < 8; i++ {
		fs = append(fs, randTT(rng, n).build(m))
	}
	cube := m.CubeVars(0, Var(n/2), Var(n-1))
	for i := 0; i+2 < len(fs); i++ {
		f, g, h := fs[i], fs[i+1], fs[i+2]
		c := m.Or(g, h)
		tr.Refs = append(tr.Refs,
			m.ITE(f, g, h), m.Constrain(f, c), m.Restrict(f, c), m.Exists(f, cube))
		tr.Verdicts = append(tr.Verdicts, m.MatchOSM(f, c, g, c), m.MatchTSM(f, g, g, h), m.Disjoint(f, g))
		tr.Sigs = m.AppendSignatures(tr.Sigs, f)
	}
	keep := m.Protect(m.And(fs[0], fs[1]))
	tr.CacheOps = m.CacheStatsByOp()
	m.GC(fs[2])
	tr.Refs = append(tr.Refs, m.Xor(keep, randTT(rng, n).build(m)), m.Constrain(keep, fs[2]))
	m.Unprotect(keep)
	tr.NodesMade = m.NodesMade()
	tr.NumNodes = m.NumNodes()
	tr.Buckets = len(m.buckets)
	tr.GCRuns = m.GCRuns()
	tr.Protected = m.NumProtected()
	tr.CacheOps = append(tr.CacheOps, m.CacheStatsByOp()...)
	tr.SigStats = m.SigStats()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// dirtyManager leaves m in every non-fresh state Reset must undo: a grown
// unique table, a non-empty free list, protected roots, variable names and
// an aborted budget still attached.
func dirtyManager(t *testing.T, m *Manager) {
	t.Helper()
	rng := newRand(99)
	buckets := len(m.buckets)
	var fs []Ref
	for len(m.buckets) == buckets {
		fs = append(fs, m.Protect(randTT(rng, m.NumVars()).build(m)))
	}
	for _, f := range fs[1:] {
		m.Unprotect(f)
	}
	m.GC()
	m.Xor(fs[0], m.Constrain(fs[0], m.MkVar(1))) // leave live cache entries
	m.AddVar()
	m.SetVarName(0, "dirty")
	m.SetBudget(&Budget{FailAfter: 50})
	if err := m.Budgeted(func() { randTT(rng, m.NumVars()).build(m) }); err == nil {
		t.Fatal("FailAfter budget did not abort")
	}
}

func TestResetMatchesNew(t *testing.T) {
	const n = 9
	dirty := New(11)
	dirtyManager(t, dirty)
	if dirty.NumProtected() == 0 || len(dirty.free) == 0 {
		t.Fatal("dirtyManager left no protected roots or free slots")
	}
	dirty.Reset(n)
	if dirty.NumVars() != n || dirty.NumNodes() != 1 || dirty.NodesMade() != 0 || dirty.NumProtected() != 0 {
		t.Fatalf("Reset(%d): vars %d, nodes %d, made %d, protected %d", n,
			dirty.NumVars(), dirty.NumNodes(), dirty.NodesMade(), dirty.NumProtected())
	}
	got := resetWorkload(t, dirty, n)
	want := resetWorkload(t, New(n), n)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reset manager diverges from a fresh one:\n got  %+v\n want %+v", got, want)
	}

	// A second Reset of the same manager reproduces the run again.
	dirty.Reset(n)
	if again := resetWorkload(t, dirty, n); !reflect.DeepEqual(again, want) {
		t.Fatal("second Reset diverges from a fresh manager")
	}
}
