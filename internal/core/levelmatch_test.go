package core

import (
	"slices"
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/obs"
)

func TestCollectLevelPairsBasics(t *testing.T) {
	m := bdd.New(4)
	f := m.Or(m.And(m.MkVar(0), m.MkVar(2)), m.And(m.MkVar(1), m.MkVar(3)))
	c := bdd.One
	pairs := collectLevelPairs(m, ISF{f, c}, 1, new(lvScratch))
	if len(pairs) == 0 {
		t.Fatal("expected pairs below level 1")
	}
	for _, p := range pairs {
		fl, cl := m.Level(p.F), m.Level(p.C)
		if fl <= 1 || cl <= 1 {
			t.Fatalf("collected pair rooted at level (%d,%d), want both > 1", fl, cl)
		}
		if p.pathCare>>2 != 0 || p.pathVal&^p.pathCare != 0 {
			t.Fatalf("path words %b/%b, want levels 0..1 in the low two care bits", p.pathVal, p.pathCare)
		}
	}
	// Uniqueness.
	seen := make(map[ISF]bool)
	for _, p := range pairs {
		if seen[p.ISF] {
			t.Fatal("duplicate pair collected")
		}
		seen[p.ISF] = true
	}
}

func TestPairDistanceSiblingsIsOne(t *testing.T) {
	// Figure convention: siblings have distance 1; the paper's worked
	// example: paths 1000210 and 1201111 have distance 9.
	a, b := packedPair("1000210"), packedPair("1201111")
	if d := pairDist(&a, &b); d != 9 {
		t.Fatalf("paper's distance example: got %d, want 9", d)
	}
	// Siblings: identical path except the last position.
	s1, s2 := packedPair("101"), packedPair("100")
	if d := pairDist(&s1, &s2); d != 1 {
		t.Fatalf("sibling distance: got %d, want 1", d)
	}
	if pairDist(&s1, &s1) != 0 {
		t.Fatal("distance to self must be 0")
	}
}

// packedPair packs a path written level by level ('0', '1', or '2' for a
// level the path skips) into LevelPair's words, as collectLevelPairs does
// for pairs collected below the path's last level.
func packedPair(path string) LevelPair {
	var p LevelPair
	for lvl, v := range path {
		bit := uint64(1) << uint(len(path)-1-lvl)
		if v != '2' {
			p.pathCare |= bit
		}
		if v == '1' {
			p.pathVal |= bit
		}
	}
	return p
}

// TestPairDistanceBeyond64Levels: below a level 64 or more from the root,
// the packed words drop the path's top levels. Every distance must still
// equal the uint64 sum over the whole slice path, whose weights for those
// levels are 0 too, on the pairs of a reference walk.
func TestPairDistanceBeyond64Levels(t *testing.T) {
	const n = 72
	rng := newRand(315)
	m := bdd.New(n)
	pool := []bdd.Ref{bdd.Zero, bdd.One}
	for v := n - 1; v >= 0; v-- {
		below := len(pool)
		for w := 0; w < 4; w++ {
			hi, lo := pool[rng.Intn(below)], pool[rng.Intn(below)]
			if rng.Intn(2) == 0 {
				lo = lo.Not()
			}
			pool = append(pool, m.MkNode(bdd.Var(v), hi, lo))
		}
	}
	in := ISF{F: pool[len(pool)-1], C: pool[len(pool)-2]}
	sc := new(lvScratch)
	beyond := 0
	for _, lvl := range []bdd.Var{64, 67, 70} {
		pairs := collectLevelPairs(m, in, lvl, sc)
		isfs, paths := slicePaths(m, in, lvl)
		if len(pairs) != len(isfs) {
			t.Fatalf("level %d: %d pairs, reference walk %d", lvl, len(pairs), len(isfs))
		}
		for j := range pairs {
			if pairs[j].ISF != isfs[j] {
				t.Fatalf("level %d: pair %d differs from the reference walk", lvl, j)
			}
			for k := range pairs {
				if got, want := pairDist(&pairs[j], &pairs[k]), slicePairDistance(paths[j], paths[k]); got != want {
					t.Fatalf("level %d: dist(%d, %d) = %d, want %d", lvl, j, k, got, want)
				}
				for i := 0; i+64 <= int(lvl); i++ {
					if a, b := paths[j][i], paths[k][i]; a != b && a != bdd.DontCare && b != bdd.DontCare {
						beyond++
					}
				}
			}
		}
	}
	if beyond == 0 {
		t.Fatal("no two paths differ at a level 64 or more above the boundary")
	}
}

// slicePaths walks [f, c] as collectLevelPairs does and returns each
// collected pair with its first-visit path as a slice indexed by level.
func slicePaths(m *bdd.Manager, in ISF, i bdd.Var) ([]ISF, [][]bdd.CubeValue) {
	seen := make(map[ISF]bool)
	path := make([]bdd.CubeValue, i+1)
	for l := range path {
		path[l] = bdd.DontCare
	}
	var isfs []ISF
	var paths [][]bdd.CubeValue
	var walk func(ISF)
	walk = func(in ISF) {
		if seen[in] {
			return
		}
		seen[in] = true
		top := min(m.Level(in.F), m.Level(in.C))
		if top > int32(i) {
			isfs = append(isfs, in)
			paths = append(paths, append([]bdd.CubeValue(nil), path...))
			return
		}
		fT, fE := branchAt(m, in.F, top)
		cT, cE := branchAt(m, in.C, top)
		path[top] = bdd.CubeOne
		walk(ISF{fT, cT})
		path[top] = bdd.CubeZero
		walk(ISF{fE, cE})
		path[top] = bdd.DontCare
	}
	walk(in)
	return isfs, paths
}

// slicePairDistance is Section 3.3.2's distance on slice paths of equal
// length k: Σ_i |x_i^a − x_i^b| · 2^(k−i−1) over the levels both paths
// assign. A weight of 2^64 or more is a shift past the word, which Go
// defines as 0.
func slicePairDistance(a, b []bdd.CubeValue) uint64 {
	var d uint64
	for i := range a {
		if a[i] != bdd.DontCare && b[i] != bdd.DontCare && a[i] != b[i] {
			d += uint64(1) << uint(len(a)-i-1)
		}
	}
	return d
}

// TestISFMapMatchesGoMap drives the ISF table and a Go map through the same
// random put, get and visit sequence. The first round grows the table
// several times; the next rounds, over fewer keys, reuse it after resets
// and keep its peak size without growing.
func TestISFMapMatchesGoMap(t *testing.T) {
	rng := newRand(316)
	var tab isfMap
	peak := 0
	for round, keys := range []int{1200, 400, 1} {
		tab.reset()
		if round > 0 && len(tab.keys) != peak {
			t.Fatalf("round %d: reset left %d slots, want the peak %d", round, len(tab.keys), peak)
		}
		want := make(map[ISF]ISF)
		grows := 0
		for op := 0; op < 8000; op++ {
			key := ISF{bdd.Ref(rng.Intn(keys)), bdd.Ref(rng.Intn(3))}
			slots := len(tab.keys)
			switch rng.Intn(3) {
			case 0:
				v := ISF{bdd.Ref(rng.Uint32()), bdd.Ref(rng.Uint32())}
				tab.put(key, v)
				want[key] = v
			case 1:
				got, ok := tab.get(key)
				w, wok := want[key]
				if ok != wok || got != w {
					t.Fatalf("round %d op %d: get(%v) = %v, %v; want %v, %v", round, op, key, got, ok, w, wok)
				}
			case 2:
				_, wok := want[key]
				if got := tab.visit(key); got != wok {
					t.Fatalf("round %d op %d: visit(%v) = %v, want %v", round, op, key, got, wok)
				}
				if !wok {
					want[key] = ISF{}
				}
			}
			if len(tab.keys) > slots {
				grows++
			}
			if tab.used != len(want) {
				t.Fatalf("round %d op %d: %d entries, want %d", round, op, tab.used, len(want))
			}
		}
		for key, w := range want {
			if got, ok := tab.get(key); !ok || got != w {
				t.Fatalf("round %d: get(%v) = %v, %v at the end; want %v", round, key, got, ok, w)
			}
		}
		if round == 0 && grows < 5 || round > 0 && grows > 0 {
			t.Fatalf("round %d grew %d times", round, grows)
		}
		peak = len(tab.keys)
	}
}

func TestCollectLevelPairsSignatures(t *testing.T) {
	rng := newRand(310)
	m := bdd.New(6)
	in := randISF(rng, m, 6)
	pairs := collectLevelPairs(m, in, 2, new(lvScratch))
	if len(pairs) == 0 {
		t.Skip("no pairs collected")
	}
	for i, p := range pairs {
		if sigs := m.AppendSignatures(nil, p.F, p.C); p.FSig != sigs[0] || p.CSig != sigs[1] {
			t.Fatalf("pair %d carries stale signatures", i)
		}
	}
}

// The signature filter is a necessary condition: it must never reject a
// pair the criterion matches.
func TestSignaturePruningSound(t *testing.T) {
	rng := newRand(311)
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(3)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		pairs := collectLevelPairs(m, in, bdd.Var(rng.Intn(n-1)), new(lvScratch))
		for j := range pairs {
			for k := range pairs {
				if j == k {
					continue
				}
				a, b := pairs[j], pairs[k]
				if OSM.Matches(m, a.ISF, b.ISF) && !bdd.SigMatchOSM(a.FSig, a.CSig, b.FSig, b.CSig) {
					t.Fatalf("trial %d: OSM filter rejected true match (%d,%d)", trial, j, k)
				}
				if TSM.Matches(m, a.ISF, b.ISF) && !bdd.SigMatchTSM(a.FSig, a.CSig, b.FSig, b.CSig) {
					t.Fatalf("trial %d: TSM filter rejected true match (%d,%d)", trial, j, k)
				}
			}
		}
	}
}

// Pruning changes cost, never results: solving with signatures filled must
// produce exactly the replacement maps of solving with pruning disabled
// (all-zero signatures pass every filter).
func TestSignaturePruningPreservesResults(t *testing.T) {
	rng := newRand(312)
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(3)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		pairs := collectLevelPairs(m, in, bdd.Var(rng.Intn(n-1)), new(lvScratch))
		if len(pairs) < 2 {
			continue
		}
		unpruned := make([]LevelPair, len(pairs))
		copy(unpruned, pairs)
		for i := range unpruned {
			unpruned[i].FSig, unpruned[i].CSig = 0, 0
		}
		a, b := new(lvScratch), new(lvScratch)
		solveOSMLevel(m, pairs, a)
		solveOSMLevel(m, unpruned, b)
		sameReplacements(t, "OSM", trial, pairs, &a.repl, &b.repl)
		solveTSMLevel(m, pairs, a)
		solveTSMLevel(m, unpruned, b)
		sameReplacements(t, "TSM", trial, pairs, &a.repl, &b.repl)
	}
}

// sameReplacements fails unless both replacement maps send every pair to
// the same i-cover, or leave it out of both.
func sameReplacements(t *testing.T, cr string, trial int, pairs []LevelPair, a, b *isfMap) {
	t.Helper()
	if a.used != b.used {
		t.Fatalf("trial %d: %s replacements differ: %d vs %d", trial, cr, a.used, b.used)
	}
	for _, p := range pairs {
		ta, okA := a.get(p.ISF)
		tb, okB := b.get(p.ISF)
		if okA != okB || ta != tb {
			t.Fatalf("trial %d: %s replacement for %v differs", trial, cr, p.ISF)
		}
	}
}

func BenchmarkMinimizeAtLevelTSM(b *testing.B) {
	rng := newRand(313)
	m := bdd.New(12)
	in := randISF(rng, m, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FlushCaches()
		MinimizeAtLevel(m, in, 5, TSM)
	}
}

// BenchmarkAblationCliqueOrder compares the clique construction with and
// without the Section 3.3.2 optimizations (degree-ordered seeds,
// distance-weighted extension) on the pairs below level 1 of random
// non-trivial instances over 6 to 10 variables.
func BenchmarkAblationCliqueOrder(b *testing.B) {
	rng := newRand(1994)
	type instance struct {
		m  *bdd.Manager
		in ISF
	}
	var insts []instance
	for len(insts) < 40 {
		n := 6 + rng.Intn(5)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		if m.IsCube(in.C) || m.Leq(in.C, in.F) || m.Disjoint(in.C, in.F) {
			continue
		}
		insts = append(insts, instance{m, in})
	}
	for _, optimized := range []bool{false, true} {
		name := "naive"
		if optimized {
			name = "optimized"
		}
		b.Run(name, func(b *testing.B) {
			sc := new(lvScratch)
			var cliques int64
			for i := 0; i < b.N; i++ {
				inst := insts[i%len(insts)]
				pairs := collectLevelPairs(inst.m, inst.in, 1, sc)
				if len(pairs) < 2 {
					continue
				}
				cs, _, _ := tsmCliqueCover(inst.m, pairs, optimized, sc)
				cliques += int64(len(cs))
			}
			b.ReportMetric(float64(cliques)/float64(b.N), "cliques/op")
		})
	}
}

func TestSolveOSMLevelSinks(t *testing.T) {
	// Proposition 10: the number of i-covers equals the number of sinks
	// of the DMG, and every replaced pair osm-matches its replacement.
	rng := newRand(301)
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(3)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		lvl := bdd.Var(rng.Intn(n - 1))
		pairs := collectLevelPairs(m, in, lvl, new(lvScratch))
		if len(pairs) < 2 {
			continue
		}
		sc := new(lvScratch)
		solveOSMLevel(m, pairs, sc)
		// Independent oracle for the minimum FMM size (Proposition 10):
		// the number of sink classes of the DMG quotiented by mutual
		// matching. A vertex is in a sink class iff every match it makes
		// is mutual; sink classes are counted up to mutual matching.
		var sinkReps []int
		for j := range pairs {
			isSink := true
			for k := range pairs {
				if j == k {
					continue
				}
				if OSM.Matches(m, pairs[j].ISF, pairs[k].ISF) && !OSM.Matches(m, pairs[k].ISF, pairs[j].ISF) {
					isSink = false
					break
				}
			}
			if !isSink {
				continue
			}
			dup := false
			for _, r := range sinkReps {
				if OSM.Matches(m, pairs[j].ISF, pairs[r].ISF) && OSM.Matches(m, pairs[r].ISF, pairs[j].ISF) {
					dup = true
					break
				}
			}
			if !dup {
				sinkReps = append(sinkReps, j)
			}
		}
		if got := len(pairs) - sc.repl.used; got != len(sinkReps) {
			t.Fatalf("FMM(osm) solution size %d, want %d sink classes", got, len(sinkReps))
		}
		for _, p := range pairs {
			if to, ok := sc.repl.get(p.ISF); ok && !OSM.Matches(m, p.ISF, to) {
				t.Fatal("replacement must be an osm match")
			}
		}
	}
}

func TestTSMCliqueCoverIsValidPartition(t *testing.T) {
	rng := newRand(302)
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(3)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		lvl := bdd.Var(rng.Intn(n - 1))
		pairs := collectLevelPairs(m, in, lvl, new(lvScratch))
		if len(pairs) < 2 {
			continue
		}
		for _, optimized := range []bool{false, true} {
			cliques, _, _ := tsmCliqueCover(m, pairs, optimized, new(lvScratch))
			covered := make([]bool, len(pairs))
			for _, clique := range cliques {
				for i, v := range clique {
					if covered[v] {
						t.Fatal("vertex covered twice")
					}
					covered[v] = true
					for _, u := range clique[i+1:] {
						if !TSM.Matches(m, pairs[v].ISF, pairs[u].ISF) {
							t.Fatal("clique members must pairwise tsm-match")
						}
					}
				}
			}
			for v, ok := range covered {
				if !ok {
					t.Fatalf("vertex %d left uncovered", v)
				}
			}
		}
	}
}

func TestTSMCliqueFoldIsCommonICover(t *testing.T) {
	// Lemma 14 in action: the folded i-cover of a clique covers every
	// member (checked by enumerating the i-cover's covers on small n).
	rng := newRand(303)
	checked := 0
	for trial := 0; trial < 80 && checked < 25; trial++ {
		n := 3
		m := bdd.New(n)
		in := randISF(rng, m, n)
		pairs := collectLevelPairs(m, in, 0, new(lvScratch))
		if len(pairs) < 2 {
			continue
		}
		sc := new(lvScratch)
		solveTSMLevel(m, pairs, sc)
		for _, p := range pairs {
			to, ok := sc.repl.get(p.ISF)
			if !ok {
				continue
			}
			checked++
			allCovers(m, to, n, func(g bdd.Ref) {
				if !p.Cover(m, g) {
					t.Fatal("cover of clique i-cover must cover the member")
				}
			})
		}
	}
	if checked == 0 {
		t.Skip("no replacements exercised")
	}
}

func TestMinimizeAtLevelProducesICover(t *testing.T) {
	// The level transformation must produce an i-cover: every cover of
	// the result covers the original instance.
	rng := newRand(304)
	for trial := 0; trial < 60; trial++ {
		n := 3
		m := bdd.New(n)
		in := randISF(rng, m, n)
		for _, cr := range []Criterion{OSM, TSM} {
			for lvl := 0; lvl < n; lvl++ {
				out, _ := MinimizeAtLevel(m, in, bdd.Var(lvl), cr)
				allCovers(m, out, n, func(g bdd.Ref) {
					if !in.Cover(m, g) {
						t.Fatalf("%v level %d: cover of output is not a cover of input", cr, lvl)
					}
				})
			}
		}
	}
}

// TestTheorem12OSMPreservesBelowLevelOptimum: after OSM matching at level
// i, the minimum achievable node count below i over covers of the result
// equals that of the original (the paper's Theorem 12). Verified by brute
// force on small instances.
func TestTheorem12OSMPreservesBelowLevelOptimum(t *testing.T) {
	rng := newRand(305)
	minBelow := func(m *bdd.Manager, in ISF, n int, i bdd.Var) int {
		best := 1 << 30
		allCovers(m, in, n, func(g bdd.Ref) {
			if ni := m.NodesBelowLevel(g, i); ni < best {
				best = ni
			}
		})
		return best
	}
	for trial := 0; trial < 40; trial++ {
		n := 3
		m := bdd.New(n)
		in := randISF(rng, m, n)
		for lvl := 0; lvl < n-1; lvl++ {
			out, stats := MinimizeAtLevel(m, in, bdd.Var(lvl), OSM)
			if stats.Replaced == 0 {
				continue
			}
			before := minBelow(m, in, n, bdd.Var(lvl))
			after := minBelow(m, out, n, bdd.Var(lvl))
			if after != before {
				t.Fatalf("Theorem 12 violated at level %d: N_i %d -> %d (trial %d)",
					lvl, before, after, trial)
			}
		}
	}
}

func TestRebuildIdentityWhenNoReplacements(t *testing.T) {
	m := bdd.New(4)
	rng := newRand(306)
	in := randISF(rng, m, 4)
	var repl, memo isfMap
	repl.reset()
	memo.reset()
	out := rebuildWithReplacements(m, in, 1, &repl, &memo)
	if out != in {
		t.Fatal("rebuild with no replacements must be the identity")
	}
}

func TestOptLvReturnsCoverAndShrinks(t *testing.T) {
	rng := newRand(307)
	shrunk := false
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(3)
		m := bdd.New(n)
		in := randISF(rng, m, n)
		o := &OptLv{}
		g := o.Minimize(m, in.F, in.C)
		requireCover(t, m, g, in, "opt_lv")
		if m.Size(g) < m.Size(in.F) {
			shrunk = true
		}
	}
	if !shrunk {
		t.Fatal("opt_lv never reduced any instance; something is off")
	}
}

// TestOptLvSkipsLevelsWithoutNodes: on random ISFs over a few of a
// manager's variables, OptLv returns the Ref that MinimizeAtLevel reaches
// when run at every level in order, and traces rounds only at levels that
// hold a node of f or c.
func TestOptLvSkipsLevelsWithoutNodes(t *testing.T) {
	const n = 10
	rng := newRand(319)
	for trial := 0; trial < 60; trial++ {
		m := bdd.New(n)
		var vs []bdd.Var
		for _, v := range rng.Perm(n)[:3+rng.Intn(3)] {
			vs = append(vs, bdd.Var(v))
		}
		slices.Sort(vs)
		random := func() bdd.Ref {
			vals := make([]bool, 1<<len(vs))
			for i := range vals {
				vals[i] = rng.Intn(2) == 1
			}
			return m.FromTruthTable(vs, vals)
		}
		in := ISF{F: random(), C: random()}
		for in.C == bdd.Zero {
			in.C = random()
		}
		var buf obs.Buffer
		g := (&OptLv{Trace: &buf}).Minimize(m, in.F, in.C)
		want := in
		for i := 0; i < n; i++ {
			want, _ = MinimizeAtLevel(m, want, bdd.Var(i), TSM)
		}
		if g != want.F {
			t.Fatalf("trial %d: opt_lv returned %v, every level in order %v", trial, g, want.F)
		}
		held := append(m.Support(in.F), m.Support(in.C)...)
		last := -1
		for _, ev := range buf.Events {
			lv := ev.(obs.LevelMatchEvent).Level
			if lv <= last || !slices.Contains(held, bdd.Var(lv)) {
				t.Fatalf("trial %d: round at level %d after %d; f and c hold levels %v", trial, lv, last, held)
			}
			last = lv
		}
	}
}
