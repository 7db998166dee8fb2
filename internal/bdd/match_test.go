package bdd

import "testing"

// naiveMatchOSM is the build-the-BDD definition the kernel must agree
// with: Disjoint(Xor(f1,f2), c1) and c1 ≤ c2 via materialized operations.
func naiveMatchOSM(m *Manager, f1, c1, f2, c2 Ref) bool {
	return m.And(m.Xor(f1, f2), c1) == Zero && m.AndNot(c1, c2) == Zero
}

// naiveMatchTSM materializes (f1⊕f2)·c1·c2 and tests it against Zero.
func naiveMatchTSM(m *Manager, f1, c1, f2, c2 Ref) bool {
	return m.AndN(m.Xor(f1, f2), c1, c2) == Zero
}

// randISFPool builds count deterministic (f, c) operand functions.
func randISFPool(t *testing.T, n, count int, seed int64) (*Manager, []Ref) {
	t.Helper()
	m := New(n)
	rng := newRand(seed)
	out := make([]Ref, count)
	for i := range out {
		out[i] = randTT(rng, n).build(m)
	}
	return m, out
}

func TestMatchKernelsAgreeWithNaive(t *testing.T) {
	m, fs := randISFPool(t, 7, 24, 411)
	consts := []Ref{One, Zero}
	operands := append(consts, fs...)
	for i, f1 := range operands {
		for j, f2 := range operands {
			c1 := operands[(i+j+2)%len(operands)]
			c2 := operands[(i+2*j+5)%len(operands)]
			gotOSM := m.MatchOSM(f1, c1, f2, c2)
			gotTSM := m.MatchTSM(f1, c1, f2, c2)
			if want := naiveMatchOSM(m, f1, c1, f2, c2); gotOSM != want {
				t.Fatalf("MatchOSM(%v,%v,%v,%v) = %v, want %v", f1, c1, f2, c2, gotOSM, want)
			}
			if want := naiveMatchTSM(m, f1, c1, f2, c2); gotTSM != want {
				t.Fatalf("MatchTSM(%v,%v,%v,%v) = %v, want %v", f1, c1, f2, c2, gotTSM, want)
			}
		}
	}
}

func TestMatchTSMSymmetric(t *testing.T) {
	m, fs := randISFPool(t, 7, 16, 412)
	for i, f1 := range fs {
		for j, f2 := range fs {
			c1, c2 := fs[(i+5)%len(fs)], fs[(j+11)%len(fs)]
			if m.MatchTSM(f1, c1, f2, c2) != m.MatchTSM(f2, c2, f1, c1) {
				t.Fatalf("TSM kernel not symmetric on pair (%d,%d)", i, j)
			}
		}
	}
}

// The kernels are pure queries: zero nodes allocated, live count constant.
func TestMatchKernelsAllocateNoNodes(t *testing.T) {
	m, fs := randISFPool(t, 8, 16, 413)
	liveBefore, madeBefore := m.NumNodes(), m.NodesMade()
	for i, f1 := range fs {
		for j, f2 := range fs {
			c1, c2 := fs[(i+3)%len(fs)], fs[(j+9)%len(fs)]
			m.MatchOSM(f1, c1, f2, c2)
			m.MatchTSM(f1, c1, f2, c2)
			m.Disjoint(f1, c2)
			m.Leq(c1, f2)
		}
	}
	if live, made := m.NumNodes(), m.NodesMade(); live != liveBefore || made != madeBefore {
		t.Fatalf("match kernels built nodes: live %d->%d, made %d->%d",
			liveBefore, live, madeBefore, made)
	}
}

// opCount extracts one operation's counters from CacheStatsByOp.
func opCount(m *Manager, op string) CacheOpStats {
	for _, s := range m.CacheStatsByOp() {
		if s.Op == op {
			return s
		}
	}
	return CacheOpStats{Op: op}
}

// A repeated kernel query must be answered from the boolean cache slot in
// one probe: exactly one additional hit, no additional misses (no
// recursion re-ran).
func TestMatchKernelsMemoized(t *testing.T) {
	m, fs := randISFPool(t, 8, 4, 414)
	// Signature refutation answers non-matching queries without touching
	// the cache, so exercise the memo with operands the filter can never
	// reject: a genuine TSM match (f2 agrees with f1 wherever both care)
	// and, below, a genuinely disjoint pair.
	f1, c1, c2 := fs[0], fs[1], fs[2]
	f2 := m.ITE(m.And(c1, c2), f1, fs[3])
	if f2 == f1 || f2.IsConst() {
		t.Fatal("bad pool: constructed match operand degenerate")
	}

	first := m.MatchTSM(f1, c1, f2, c2)
	if !first {
		t.Fatal("constructed pair must TSM-match")
	}
	before := opCount(m, "match_tsm")
	if before.Misses == 0 {
		t.Fatal("first TSM query should populate the boolean slot")
	}
	if again := m.MatchTSM(f1, c1, f2, c2); again != first {
		t.Fatal("memoized verdict differs")
	}
	after := opCount(m, "match_tsm")
	if after.Misses != before.Misses {
		t.Fatalf("repeated TSM query re-ran the recursion: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+1 {
		t.Fatalf("repeated TSM query: hits %d -> %d, want exactly one more", before.Hits, after.Hits)
	}

	d1, d2 := m.And(fs[3], c1), m.And(fs[3].Not(), c2)
	if d1.IsConst() || d2.IsConst() {
		t.Fatal("bad pool: constructed disjoint operands degenerate")
	}
	firstD := m.Disjoint(d1, d2)
	if !firstD {
		t.Fatal("constructed pair must be disjoint")
	}
	beforeD := opCount(m, "disjoint")
	if beforeD.Misses == 0 {
		t.Fatal("first Disjoint query should populate the boolean slot")
	}
	if m.Disjoint(d1, d2) != firstD {
		t.Fatal("memoized disjoint verdict differs")
	}
	afterD := opCount(m, "disjoint")
	if afterD.Misses != beforeD.Misses || afterD.Hits != beforeD.Hits+1 {
		t.Fatalf("repeated Disjoint query not answered by the memo: %+v -> %+v", beforeD, afterD)
	}
	// Symmetry shares the slot: the swapped query is the same canonical key.
	if m.Disjoint(d2, d1) != firstD {
		t.Fatal("disjoint must be symmetric")
	}
	if sym := opCount(m, "disjoint"); sym.Hits != afterD.Hits+1 || sym.Misses != afterD.Misses {
		t.Fatalf("swapped Disjoint query missed the canonical slot: %+v -> %+v", afterD, sym)
	}
}
