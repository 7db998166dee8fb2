package core

import (
	"testing"

	"bddmin/internal/bdd"
)

func TestCollectLevelPairsBasics(t *testing.T) {
	m := bdd.New(4)
	f := m.Or(m.And(m.MkVar(0), m.MkVar(2)), m.And(m.MkVar(1), m.MkVar(3)))
	c := bdd.One
	pairs := collectLevelPairs(m, ISF{f, c}, 1, newLvScratch())
	if len(pairs) == 0 {
		t.Fatal("expected pairs below level 1")
	}
	for _, p := range pairs {
		fl, cl := m.Level(p.F), m.Level(p.C)
		if fl <= 1 || cl <= 1 {
			t.Fatalf("collected pair rooted at level (%d,%d), want both > 1", fl, cl)
		}
		if len(p.Path) != 2 {
			t.Fatalf("path length %d, want 2 (levels 0..1)", len(p.Path))
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
	a := LevelPair{Path: []bdd.CubeValue{bdd.CubeOne, bdd.CubeZero, bdd.CubeZero, bdd.CubeZero, bdd.DontCare, bdd.CubeOne, bdd.CubeZero}}
	b := LevelPair{Path: []bdd.CubeValue{bdd.CubeOne, bdd.DontCare, bdd.CubeZero, bdd.CubeOne, bdd.CubeOne, bdd.CubeOne, bdd.CubeOne}}
	if d := PairDistance(a, b); d != 9 {
		t.Fatalf("paper's distance example: got %d, want 9", d)
	}
	// Siblings: identical path except the last position.
	s1 := LevelPair{Path: []bdd.CubeValue{bdd.CubeOne, bdd.CubeZero, bdd.CubeOne}}
	s2 := LevelPair{Path: []bdd.CubeValue{bdd.CubeOne, bdd.CubeZero, bdd.CubeZero}}
	if d := PairDistance(s1, s2); d != 1 {
		t.Fatalf("sibling distance: got %d, want 1", d)
	}
	if PairDistance(s1, s1) != 0 {
		t.Fatal("distance to self must be 0")
	}
}

func TestCollectLevelPairsSignatures(t *testing.T) {
	rng := newRand(310)
	m := bdd.New(6)
	in := randISF(rng, m, 6)
	pairs := collectLevelPairs(m, in, 2, newLvScratch())
	if len(pairs) == 0 {
		t.Skip("no pairs collected")
	}
	for i, p := range pairs {
		if p.FSig != m.Signature(p.F) || p.CSig != m.Signature(p.C) {
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
		pairs := collectLevelPairs(m, in, bdd.Var(rng.Intn(n-1)), newLvScratch())
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
		pairs := collectLevelPairs(m, in, bdd.Var(rng.Intn(n-1)), newLvScratch())
		if len(pairs) < 2 {
			continue
		}
		unpruned := make([]LevelPair, len(pairs))
		copy(unpruned, pairs)
		for i := range unpruned {
			unpruned[i].FSig, unpruned[i].CSig = 0, 0
		}
		osmA, _, _ := solveOSMLevel(m, pairs)
		osmB, _, _ := solveOSMLevel(m, unpruned)
		if len(osmA) != len(osmB) {
			t.Fatalf("trial %d: OSM replacements differ: %d vs %d", trial, len(osmA), len(osmB))
		}
		for from, to := range osmA {
			if osmB[from] != to {
				t.Fatalf("trial %d: OSM replacement for %v differs", trial, from)
			}
		}
		tsmA, _, _, _ := solveTSMLevel(m, pairs, newLvScratch())
		tsmB, _, _, _ := solveTSMLevel(m, unpruned, newLvScratch())
		if len(tsmA) != len(tsmB) {
			t.Fatalf("trial %d: TSM replacements differ: %d vs %d", trial, len(tsmA), len(tsmB))
		}
		for from, to := range tsmA {
			if tsmB[from] != to {
				t.Fatalf("trial %d: TSM replacement for %v differs", trial, from)
			}
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
			sc := newLvScratch()
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

func BenchmarkOptLv(b *testing.B) {
	rng := newRand(314)
	m := bdd.New(12)
	in := randISF(rng, m, 12)
	o := &OptLv{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FlushCaches()
		o.Minimize(m, in.F, in.C)
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
		pairs := collectLevelPairs(m, in, lvl, newLvScratch())
		if len(pairs) < 2 {
			continue
		}
		repl, _, _ := solveOSMLevel(m, pairs)
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
		if got := len(pairs) - len(repl); got != len(sinkReps) {
			t.Fatalf("FMM(osm) solution size %d, want %d sink classes", got, len(sinkReps))
		}
		for from, to := range repl {
			if !OSM.Matches(m, from, to) {
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
		pairs := collectLevelPairs(m, in, lvl, newLvScratch())
		if len(pairs) < 2 {
			continue
		}
		for _, optimized := range []bool{false, true} {
			cliques, _, _ := tsmCliqueCover(m, pairs, optimized, newLvScratch())
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
		pairs := collectLevelPairs(m, in, 0, newLvScratch())
		if len(pairs) < 2 {
			continue
		}
		repl, _, _, _ := solveTSMLevel(m, pairs, newLvScratch())
		for from, to := range repl {
			checked++
			allCovers(m, to, n, func(g bdd.Ref) {
				if !from.Cover(m, g) {
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
	var memo isfMap
	memo.reset(0)
	out := rebuildWithReplacements(m, in, 1, map[ISF]ISF{}, &memo)
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
