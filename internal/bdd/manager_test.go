package bdd

import "testing"

func TestConstants(t *testing.T) {
	if One.Not() != Zero || Zero.Not() != One {
		t.Fatal("complement of constants broken")
	}
	if !One.IsConst() || !Zero.IsConst() {
		t.Fatal("constants must report IsConst")
	}
	if One.IsComplement() || !Zero.IsComplement() {
		t.Fatal("Zero must be the complemented terminal edge")
	}
}

func TestMkVarBasics(t *testing.T) {
	m := New(3)
	x := m.MkVar(0)
	if x.IsConst() {
		t.Fatal("variable must not be constant")
	}
	if m.TopVar(x) != 0 {
		t.Fatalf("TopVar = %d, want 0", m.TopVar(x))
	}
	t0, e0 := m.Branches(x)
	if t0 != One || e0 != Zero {
		t.Fatalf("branches of x0 = (%v,%v), want (One,Zero)", t0, e0)
	}
	nx := m.MkNotVar(0)
	if nx != x.Not() {
		t.Fatal("MkNotVar must be the complement edge of MkVar")
	}
	tn, en := m.Branches(nx)
	if tn != Zero || en != One {
		t.Fatalf("branches of !x0 = (%v,%v), want (Zero,One)", tn, en)
	}
}

func TestMkNodeReductionRules(t *testing.T) {
	m := New(3)
	x1 := m.MkVar(1)
	// Deletion rule: equal children collapse.
	if got := m.mkNode(0, x1, x1); got != x1 {
		t.Fatal("deletion rule violated")
	}
	// Merging rule: hash-consing returns identical Refs.
	a := m.mkNode(0, x1, Zero)
	b := m.mkNode(0, x1, Zero)
	if a != b {
		t.Fatal("merging rule violated")
	}
	// Complement normalization: the stored high edge is regular.
	c := m.mkNode(0, x1.Not(), One)
	if !c.IsComplement() {
		t.Fatal("node with complemented high edge must be returned complemented")
	}
	if m.nodes[c.index()].high.IsComplement() {
		t.Fatal("stored high edge must be regular")
	}
	// Both spellings of the same function coincide.
	d := m.mkNode(0, x1.Not(), One)
	if c != d {
		t.Fatal("complement normalization must be canonical")
	}
}

func TestMkNodeOrderingPanics(t *testing.T) {
	m := New(2)
	x0 := m.MkVar(0)
	defer func() {
		if recover() == nil {
			t.Fatal("MkNode must reject children at or above the node level")
		}
	}()
	m.MkNode(1, x0, Zero)
}

func TestCanonicityAcrossConstructionOrders(t *testing.T) {
	m := New(4)
	x := func(i Var) Ref { return m.MkVar(i) }
	// (x0 & x1) | (x2 & x3) built two different ways.
	a := m.Or(m.And(x(0), x(1)), m.And(x(2), x(3)))
	b := m.Or(m.And(x(3), x(2)), m.And(x(1), x(0)))
	if a != b {
		t.Fatal("structurally different construction orders must canonicalize")
	}
	// De Morgan.
	c := m.AndN(x(0).Not(), x(1).Not())
	d := m.Or(x(0), x(1)).Not()
	if c != d {
		t.Fatal("De Morgan identity must hold by canonicity")
	}
}

func TestVarNames(t *testing.T) {
	m := New(3)
	if m.VarName(1) != "x1" {
		t.Fatalf("default name = %q", m.VarName(1))
	}
	m.SetVarName(1, "clk")
	if m.VarName(1) != "clk" {
		t.Fatalf("named var = %q", m.VarName(1))
	}
	if m.VarName(2) != "x2" {
		t.Fatalf("unnamed var after SetVarName = %q", m.VarName(2))
	}
}

func TestAddVar(t *testing.T) {
	m := New(1)
	v := m.AddVar()
	if v != 1 || m.NumVars() != 2 {
		t.Fatalf("AddVar = %d, NumVars = %d", v, m.NumVars())
	}
	f := m.And(m.MkVar(0), m.MkVar(v))
	if f.IsConst() {
		t.Fatal("conjunction of distinct vars is nonconstant")
	}
}

func TestNumNodesAccounting(t *testing.T) {
	m := New(8)
	if m.NumNodes() != 1 {
		t.Fatalf("fresh manager has %d nodes, want 1 (terminal)", m.NumNodes())
	}
	f := One
	for i := 0; i < 8; i++ {
		f = m.And(f, m.MkVar(Var(i)))
	}
	if m.NumNodes() < 9 {
		t.Fatalf("8-literal cube needs at least 9 nodes, have %d", m.NumNodes())
	}
	if m.Size(f) != 9 {
		t.Fatalf("Size(cube of 8) = %d, want 9", m.Size(f))
	}
}

func TestUniqueTableGrowth(t *testing.T) {
	m := NewWithConfig(16, Config{InitialBuckets: 4})
	rng := newRand(7)
	// Force many nodes so the table grows several times, then verify
	// canonicity still holds.
	funcs := make([]Ref, 0, 50)
	tts := make([]tt, 0, 50)
	for i := 0; i < 50; i++ {
		w := randTT(rng, 6)
		funcs = append(funcs, w.build(m))
		tts = append(tts, w)
	}
	for i := range funcs {
		again := tts[i].build(m)
		if again != funcs[i] {
			t.Fatalf("function %d lost canonicity after growth", i)
		}
	}
}

func TestForeignRefPanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("checkRef must reject out-of-arena refs")
		}
	}()
	m.ITE(Ref(99999<<1), One, Zero)
}

func TestManagerCounters(t *testing.T) {
	m := New(4)
	if m.NodesMade() != 0 {
		t.Fatal("fresh manager made no nodes")
	}
	f := m.And(m.MkVar(0), m.MkVar(1))
	if m.NodesMade() == 0 {
		t.Fatal("node counter must advance")
	}
	m.FlushCaches()
	_ = m.And(f, m.MkVar(2))
	if len(m.CacheStatsByOp()) == 0 {
		t.Fatal("cache statistics must accumulate")
	}
	if m.GCRuns() != 0 {
		t.Fatal("no GC ran yet")
	}
	m.GC(f)
	if m.GCRuns() != 1 {
		t.Fatal("GC counter")
	}
}

func TestConfigDefaults(t *testing.T) {
	m := NewWithConfig(2, Config{InitialBuckets: -5, CacheBits: -1})
	if m.NumVars() != 2 {
		t.Fatal("vars")
	}
	// Negative knobs fall back to defaults and the manager works.
	if m.Xor(m.MkVar(0), m.MkVar(1)) == Zero {
		t.Fatal("manager with default config broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative variable count must panic")
		}
	}()
	New(-1)
}
