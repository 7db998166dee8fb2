package core

import (
	"math/bits"
	"slices"
	"sync"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/obs"
)

// LevelPair is one incompletely specified subfunction [fj, cj] gathered by
// collectLevelPairs, together with the path on which it was first reached
// (used by the distance weighting of Section 3.3.2).
type LevelPair struct {
	ISF
	// FSig and CSig are the 64-assignment semantic signatures of F and C
	// (bdd.AppendSignatures), filled by collectLevelPairs. The solvers use
	// them to reject provably non-matching pairs with one word operation
	// before any kernel recursion runs; zero signatures (pairs built by
	// hand) disable pruning and are always safe.
	FSig, CSig uint64
	// pathVal and pathCare hold the first-visit path for the pairs
	// collected below level k: the path's level i sits at bit k−i, set in
	// pathCare when the path took a branch there and in pathVal when it was
	// the then branch. Levels more than 63 above k fall off the words; the
	// distance weighs them 2^(k−i) ≥ 2^64, which wraps to 0 in a uint64 sum.
	pathVal, pathCare uint64
}

// pairDist is the distance measure of Section 3.3.2 (after Touati et al.)
// between the first-visit paths of two collected pairs rooted below level
// k: dist(g,h) = Σ_i |x_i^g − x_i^h| · 2^(k−i), summed over the levels i
// where both paths take a branch. Siblings have distance 1; smaller
// distances identify "nearby" functions whose matches are preferred when
// building cliques. The bit layout makes the care-masked XOR that sum.
func pairDist(a, b *LevelPair) uint64 {
	return (a.pathVal ^ b.pathVal) & a.pathCare & b.pathCare
}

// isfMap is the one open-addressing table of ISF pairs behind the memos of
// the paper's lock-step recursions: generic_td's memo, the collector's
// visited set, the OSM and TSM replacement maps and the rebuilder's memo.
// Keys pack both Refs into one word, offset by one so the zero word can
// mark an empty slot; get, put and visit share one probe. It stays
// hand-rolled because Go maps emptied with clear() made opt_lv slower in
// every one of six alternating Table 3 runs (median 0.33 s against 0.50 s
// over 714 calls; EXPERIMENTS.md, "Level-matching tables"). Every user
// resets it before use.
type isfMap struct {
	keys []uint64
	vals []ISF
	used int
}

// reset empties the table and keeps every slot it has had, so a table that
// serves many levels and calls is sized from its peak population and grows
// only past it.
func (t *isfMap) reset() {
	if len(t.keys) == 0 {
		t.keys = make([]uint64, 16)
		t.vals = make([]ISF, 16)
	}
	clear(t.keys)
	t.used = 0
}

// isfKey packs an ISF into one word, offset by one so a zero word can mark
// an empty slot.
func isfKey(in ISF) uint64 { return (uint64(in.F)<<32 | uint64(in.C)) + 1 }

// probe returns the slot that holds key, or the empty slot where it
// belongs.
func (t *isfMap) probe(key uint64) uint64 {
	mask := uint64(len(t.keys) - 1)
	i := key * 0x9e3779b97f4a7c15 >> 32 & mask
	for t.keys[i] != 0 && t.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

func (t *isfMap) get(in ISF) (ISF, bool) {
	key := isfKey(in)
	if i := t.probe(key); t.keys[i] == key {
		return t.vals[i], true
	}
	return ISF{}, false
}

func (t *isfMap) put(in, v ISF) {
	i, _ := t.insert(in)
	t.vals[i] = v
}

// visit reports whether in was already present, inserting it if not.
func (t *isfMap) visit(in ISF) bool {
	_, found := t.insert(in)
	return found
}

// insert returns in's slot and whether in was present; an absent in
// claims an empty slot with the zero value.
func (t *isfMap) insert(in ISF) (uint64, bool) {
	key := isfKey(in)
	i := t.probe(key)
	if t.keys[i] == key {
		return i, true
	}
	if 4*(t.used+1) > 3*len(t.keys) {
		t.grow()
		i = t.probe(key)
	}
	t.keys[i], t.vals[i] = key, ISF{}
	t.used++
	return i, false
}

func (t *isfMap) grow() {
	oldK, oldV := t.keys, t.vals
	t.keys = make([]uint64, 2*len(oldK))
	t.vals = make([]ISF, 2*len(oldK))
	for j, key := range oldK {
		if key != 0 {
			i := t.probe(key)
			t.keys[i], t.vals[i] = key, oldV[j]
		}
	}
}

// lvScratch pools the allocations of the paper's recursions — the ISF
// tables, the collected pairs and their signatures, the clique cover's
// bitsets — so a full per-level sweep (OptLv) pays for them once per
// Minimize call instead of once per level, and generic_td reuses a memo
// instead of allocating one per call. A scratch is single-goroutine like
// the Manager; MinimizeAtLevel and matchSiblingsWindow take one from the
// pool per call, OptLv.Minimize reuses one across its levels.
type lvScratch struct {
	seen       isfMap      // collector's visited set
	pairs      []LevelPair // collected pairs
	refs       []bdd.Ref   // signature batch input
	sigs       []uint64    // signature batch output
	adj        []uint64    // clique cover: bitset adjacency rows
	deg        []int       // clique cover: vertex degrees
	order      []int       // clique cover: seed order
	covered    []uint64    // clique cover: covered-vertex bitset
	cand       []uint64    // clique cover: candidate bitset
	minDist    []uint64    // clique cover: lightest edge into the clique
	cliqueBuf  []int       // clique cover: member slab
	cliqueEnds []int       // clique cover: end offset of each clique in the slab
	degCnt     []int       // clique cover: counting-sort buckets
	cliques    [][]int     // clique cover: views into the slab
	repl       isfMap      // replacement map of the current level
	memo       isfMap      // generic_td's or the rebuilder's memo
	levels     []bdd.Var   // OptLv: the levels that hold a node of f or c
}

// lvScratchPool recycles scratches across minimization calls. Only entry
// points whose results do not alias scratch memory may use it
// (MinimizeAtLevel, the OptLv level loop, matchSiblingsWindow);
// collectLevelPairs and the level solvers fill scratch-backed slices and
// tables, valid until the scratch's next use.
var lvScratchPool = sync.Pool{New: func() any { return new(lvScratch) }}

// growU64 returns buf resized to n zeroed elements, reusing its capacity.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// growInt returns buf resized to n zeroed elements, reusing its capacity.
func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// collectLevelPairs gathers the incompletely specified subfunctions of
// [f, c] that are rooted strictly below level i and pointed to from level
// i or above (Section 3.3.1). The traversal walks f and c in lock-step
// depth-first order, splitting at the smaller top level, and terminates
// when both components lie below i. Only unique pairs are recorded, with
// the path of their first visit. The set is unbounded, as in the paper's
// experiments (largest observed: 513 pairs); the paper's proposed set-size
// limit is left to the kernel budget, which bounds opt_lv's work at every
// entry point.
func collectLevelPairs(m *bdd.Manager, in ISF, i bdd.Var, sc *lvScratch) []LevelPair {
	sc.seen.reset()
	sc.pairs = sc.pairs[:0]
	c := &collector{m: m, level: int32(i), sc: sc}
	c.walk(in, 0, 0)
	pairs := sc.pairs
	if len(pairs) > 0 {
		// Fingerprint every collected component in one batch; nodes shared
		// between pairs (and with earlier queries) are visited once.
		sc.refs = sc.refs[:0]
		for _, p := range pairs {
			sc.refs = append(sc.refs, p.F, p.C)
		}
		sc.sigs = m.AppendSignatures(sc.sigs[:0], sc.refs...)
		for i := range pairs {
			pairs[i].FSig, pairs[i].CSig = sc.sigs[2*i], sc.sigs[2*i+1]
		}
	}
	return pairs
}

type collector struct {
	m     *bdd.Manager
	level int32
	sc    *lvScratch
}

// walk visits in, reached on the path packed in val and care (LevelPair's
// layout).
func (c *collector) walk(in ISF, val, care uint64) {
	sc := c.sc
	if sc.seen.visit(in) {
		return
	}
	fl, cl := c.m.Level(in.F), c.m.Level(in.C)
	top := min(fl, cl)
	if top > c.level {
		sc.pairs = append(sc.pairs, LevelPair{ISF: in, pathVal: val, pathCare: care})
		return
	}
	bit := uint64(1) << uint(c.level-top) // 0 when the level is 64 or more above
	fT, fE := branchAt(c.m, in.F, top)
	cT, cE := branchAt(c.m, in.C, top)
	c.walk(ISF{fT, cT}, val|bit, care|bit)
	c.walk(ISF{fE, cE}, val, care|bit)
}

// branchAt returns f's then and else branches at level top, or f twice
// when f does not depend on that level's variable: the lock-step
// cofactoring of [f, c] that generic_td, the collector and the rebuilder
// share.
func branchAt(m *bdd.Manager, f bdd.Ref, top int32) (bdd.Ref, bdd.Ref) {
	if m.Level(f) != top {
		return f, f
	}
	return m.Branches(f)
}

// solveOSMLevel solves the function matching minimization (FMM) problem
// exactly for the OSM criterion (Proposition 10): build the directed
// matching graph (DMG) with an edge j→k iff pair j OSM-matches pair k,
// then map every vertex to a sink reachable from it. The sinks are the
// minimum set of i-covers. It fills sc.repl, sending every replaced pair's
// ISF to its i-cover; unreplaced (sink) pairs are absent. It also reports
// the DMG's edge count and the number of candidate pairs rejected by the
// signature filter, for tracing.
func solveOSMLevel(m *bdd.Manager, pairs []LevelPair, sc *lvScratch) (int, int) {
	n := len(pairs)
	edges, pruned := 0, 0
	match := make([][]bool, n)
	for j := range match {
		match[j] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			if j == k {
				continue
			}
			// One word operation rejects pairs that provably cannot
			// match; only survivors pay for a kernel query.
			if !bdd.SigMatchOSM(pairs[j].FSig, pairs[j].CSig, pairs[k].FSig, pairs[k].CSig) {
				pruned++
				continue
			}
			if OSM.Matches(m, pairs[j].ISF, pairs[k].ISF) {
				match[j][k] = true
				edges++
			}
		}
	}
	// The DMG of the paper is defined on *distinct* incompletely
	// specified functions; structurally different pairs can still be
	// equal as ISFs (same care set, same values on it), in which case
	// they match each other mutually. Quotient by mutual matching first
	// (OSM is transitive, so the classes are well defined and the
	// quotient is a DAG), electing the first member as representative.
	classOf := make([]int, n)
	for j := range classOf {
		classOf[j] = j
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			if match[j][k] && match[k][j] && classOf[k] == k {
				classOf[k] = classOf[j]
			}
		}
	}
	// Map each class to a sink class reachable from it; transitivity
	// means any single outgoing edge leads toward a sink.
	sinkOf := make([]int, n)
	for j := range sinkOf {
		sinkOf[j] = -1
	}
	var follow func(j int) int
	follow = func(j int) int {
		j = classOf[j]
		if sinkOf[j] >= 0 {
			return sinkOf[j]
		}
		sinkOf[j] = j // settle self first; overwritten if an edge leaves the class
		for k := 0; k < n; k++ {
			if classOf[k] != j && match[j][k] {
				sinkOf[j] = follow(k)
				break
			}
		}
		return sinkOf[j]
	}
	sc.repl.reset()
	for j := 0; j < n; j++ {
		s := follow(j)
		if s != j && pairs[j].ISF != pairs[s].ISF {
			sc.repl.put(pairs[j].ISF, pairs[s].ISF)
		}
	}
	return edges, pruned
}

// solveTSMLevel solves FMM for the TSM criterion heuristically via clique
// partitioning of the undirected matching graph (Theorem 15 reduces exact
// FMM-TSM to minimum clique cover, which is NP-complete). The
// implementation uses the two optimizations of Section 3.3.2: seed
// vertices are processed in decreasing order of degree, and candidate
// extensions are tried in ascending order of path distance, favoring
// matches of nearby functions. Each clique is folded into a single common
// i-cover (Lemma 14 guarantees one exists).
//
// It fills sc.repl like solveOSMLevel and reports the matching graph's
// edge count, the number of non-singleton cliques folded, and the
// signature-pruned pair count, for tracing.
func solveTSMLevel(m *bdd.Manager, pairs []LevelPair, sc *lvScratch) (int, int, int) {
	cliques, edges, pruned := tsmCliqueCover(m, pairs, true, sc)
	folded := 0
	sc.repl.reset()
	for _, clique := range cliques {
		if len(clique) < 2 {
			continue
		}
		folded++
		ic := pairs[clique[0]].ISF
		for _, v := range clique[1:] {
			ic = TSM.ICover(m, ic, pairs[v].ISF)
		}
		for _, v := range clique {
			if pairs[v].ISF != ic {
				sc.repl.put(pairs[v].ISF, ic)
			}
		}
	}
	return edges, folded, pruned
}

// tsmCliqueCover partitions the vertices of the undirected TSM matching
// graph into cliques. With optimized true it applies the degree ordering
// and distance weighting of Section 3.3.2; with optimized false it scans
// vertices and extensions in index order (the baseline the paper's
// optimizations are measured against — BenchmarkAblationCliqueOrder). It
// also reports the undirected edge count and the signature-pruned pair
// count for tracing. The returned cliques are views into the scratch's
// member slab: valid until the next cover on the same scratch.
//
// The matching graph is stored as bitset adjacency rows (word w of row j
// holds vertices 64w..64w+63), so growing a clique intersects candidate
// sets with single word operations instead of per-member map probes, and
// iteration order is index order by construction — no map-order laundering
// needed for determinism.
func tsmCliqueCover(m *bdd.Manager, pairs []LevelPair, optimized bool, sc *lvScratch) ([][]int, int, int) {
	n := len(pairs)
	edges, pruned := 0, 0
	words := (n + 63) / 64
	sc.adj = growU64(sc.adj, n*words) // row j is adj[j*words : (j+1)*words]
	adj := sc.adj
	sc.deg = growInt(sc.deg, n)
	deg := sc.deg
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			// Signature filter first: a nonzero witness word proves the
			// pair cannot TSM-match, skipping the kernel entirely.
			if !bdd.SigMatchTSM(pairs[j].FSig, pairs[j].CSig, pairs[k].FSig, pairs[k].CSig) {
				pruned++
				continue
			}
			if TSM.Matches(m, pairs[j].ISF, pairs[k].ISF) {
				adj[j*words+k/64] |= 1 << uint(k%64)
				adj[k*words+j/64] |= 1 << uint(j%64)
				deg[j]++
				deg[k]++
				edges++
			}
		}
	}
	sc.order = growInt(sc.order, n)
	order := sc.order
	if optimized {
		// Stable counting sort, descending by degree: degrees are < n, so
		// bucket by n−1−deg and place vertices in ascending index order —
		// identical ordering to a stable comparison sort, without the
		// comparator-closure overhead on every level.
		cnt := growInt(sc.degCnt, n+1)
		sc.degCnt = cnt
		for j := 0; j < n; j++ {
			cnt[n-1-deg[j]]++
		}
		pos := 0
		for b := 0; b <= n; b++ {
			c := cnt[b]
			cnt[b] = pos
			pos += c
		}
		for j := 0; j < n; j++ {
			b := n - 1 - deg[j]
			order[cnt[b]] = j
			cnt[b]++
		}
	} else {
		for j := range order {
			order[j] = j
		}
	}
	sc.covered = growU64(sc.covered, words)
	covered := sc.covered
	// cand is the running intersection of the adjacency rows of the current
	// clique's members: exactly the vertices that extend it. minDist[w] is
	// the weight of w's lightest edge into the clique, maintained
	// incrementally as members join.
	sc.cand = growU64(sc.cand, words)
	cand := sc.cand
	if cap(sc.minDist) < n {
		sc.minDist = make([]uint64, n)
	}
	minDist := sc.minDist[:n]
	// Members accumulate in a flat slab with per-clique end offsets; the
	// returned [][]int views are cut from the slab only after it stops
	// growing, so slab reallocation cannot strand an earlier view.
	sc.cliqueBuf = sc.cliqueBuf[:0]
	sc.cliqueEnds = sc.cliqueEnds[:0]
	for _, seed := range order {
		if covered[seed/64]&(1<<uint(seed%64)) != 0 {
			continue
		}
		sc.cliqueBuf = append(sc.cliqueBuf, seed)
		covered[seed/64] |= 1 << uint(seed%64)
		row := adj[seed*words : (seed+1)*words]
		for w := 0; w < words; w++ {
			cand[w] = row[w] &^ covered[w]
		}
		if optimized {
			// Section 3.3.2, second optimization: repeatedly take the
			// lightest outgoing edge of the *current* clique (distance
			// weight), so nearby functions are matched preferentially.
			for w := 0; w < words; w++ {
				for b := cand[w]; b != 0; b &= b - 1 {
					v := w*64 + bits.TrailingZeros64(b)
					minDist[v] = pairDist(&pairs[seed], &pairs[v])
				}
			}
			for {
				bestW, bestDist := -1, uint64(0)
				for w := 0; w < words; w++ {
					for b := cand[w]; b != 0; b &= b - 1 {
						v := w*64 + bits.TrailingZeros64(b)
						if bestW < 0 || minDist[v] < bestDist {
							bestW, bestDist = v, minDist[v]
						}
					}
				}
				if bestW < 0 {
					break
				}
				sc.cliqueBuf = append(sc.cliqueBuf, bestW)
				covered[bestW/64] |= 1 << uint(bestW%64)
				row = adj[bestW*words : (bestW+1)*words]
				for w := 0; w < words; w++ {
					cand[w] &= row[w] &^ covered[w]
				}
				for w := 0; w < words; w++ {
					for b := cand[w]; b != 0; b &= b - 1 {
						v := w*64 + bits.TrailingZeros64(b)
						if d := pairDist(&pairs[bestW], &pairs[v]); d < minDist[v] {
							minDist[v] = d
						}
					}
				}
			}
		} else {
			// Baseline: extensions in index order. cand shrinks as members
			// join, so testing membership in the running intersection is the
			// adjacent-to-all-members check.
			for w := 0; w < n; w++ {
				if cand[w/64]&(1<<uint(w%64)) == 0 {
					continue
				}
				sc.cliqueBuf = append(sc.cliqueBuf, w)
				covered[w/64] |= 1 << uint(w%64)
				row = adj[w*words : (w+1)*words]
				for i := 0; i < words; i++ {
					cand[i] &= row[i] &^ covered[i]
				}
			}
		}
		sc.cliqueEnds = append(sc.cliqueEnds, len(sc.cliqueBuf))
	}
	sc.cliques = sc.cliques[:0]
	start := 0
	for _, end := range sc.cliqueEnds {
		sc.cliques = append(sc.cliques, sc.cliqueBuf[start:end:end])
		start = end
	}
	return sc.cliques, edges, pruned
}

// rebuildWithReplacements reconstructs [f, c] after level matching:
// whenever the lock-step traversal reaches a collected pair that a match
// replaced, the replacement i-cover is substituted; the superstructure at
// and above level i is rebuilt node by node. The result is an i-cover of
// the input. memo must be reset by the caller.
func rebuildWithReplacements(m *bdd.Manager, in ISF, i bdd.Var, repl, memo *isfMap) ISF {
	r := &rebuilder{m: m, level: int32(i), repl: repl, memo: memo}
	return r.rebuild(in)
}

type rebuilder struct {
	m     *bdd.Manager
	level int32
	repl  *isfMap
	memo  *isfMap
}

func (r *rebuilder) rebuild(in ISF) ISF {
	fl, cl := r.m.Level(in.F), r.m.Level(in.C)
	top := min(fl, cl)
	if top > r.level {
		if out, ok := r.repl.get(in); ok {
			return out
		}
		return in
	}
	if out, ok := r.memo.get(in); ok {
		return out
	}
	fT, fE := branchAt(r.m, in.F, top)
	cT, cE := branchAt(r.m, in.C, top)
	tr := r.rebuild(ISF{fT, cT})
	er := r.rebuild(ISF{fE, cE})
	out := ISF{
		F: r.m.MkNode(bdd.Var(top), tr.F, er.F),
		C: r.m.MkNode(bdd.Var(top), tr.C, er.C),
	}
	r.memo.put(in, out)
	return out
}

// LevelMatchStats describes one level-matching round for the tracing
// layer: the matching graph built over the collected pairs (Section 3.3)
// and how much of it was used. Cliques counts the non-singleton cliques of
// the TSM cover and is zero for OSM, where the DMG is solved exactly.
// Pruned counts the candidate pairs rejected by the semantic-signature
// filter before any match kernel ran (pruning changes cost, never edges).
type LevelMatchStats struct {
	Pairs, Edges, Cliques, Replaced, Pruned int
	// Aborted records that the round was cut short by a budget abort and
	// its replacements were discarded (the anytime drivers keep the last
	// completed round's i-cover instead).
	Aborted bool
}

// MinimizeAtLevel performs one round of "minimizing at level i"
// (Section 3.3): collect the pairs below i, solve FMM under the given
// criterion (OSM exactly, TSM heuristically), and rebuild. It returns the
// transformed i-cover and the matching-graph statistics of the round
// (Replaced is the number of pairs that were replaced).
func MinimizeAtLevel(m *bdd.Manager, in ISF, i bdd.Var, cr Criterion) (ISF, LevelMatchStats) {
	sc := lvScratchPool.Get().(*lvScratch)
	out, stats := minimizeAtLevel(m, in, i, cr, sc)
	lvScratchPool.Put(sc)
	return out, stats
}

func minimizeAtLevel(m *bdd.Manager, in ISF, i bdd.Var, cr Criterion, sc *lvScratch) (ISF, LevelMatchStats) {
	pairs := collectLevelPairs(m, in, i, sc)
	stats := LevelMatchStats{Pairs: len(pairs)}
	if len(pairs) < 2 {
		return in, stats
	}
	switch cr {
	case OSM:
		stats.Edges, stats.Pruned = solveOSMLevel(m, pairs, sc)
	case TSM:
		stats.Edges, stats.Cliques, stats.Pruned = solveTSMLevel(m, pairs, sc)
	default:
		panic("core: level matching supports OSM and TSM")
	}
	stats.Replaced = sc.repl.used
	if stats.Replaced == 0 {
		return in, stats
	}
	sc.memo.reset()
	return rebuildWithReplacements(m, in, i, &sc.repl, &sc.memo), stats
}

// OptLv is the level-matching heuristic evaluated in the paper ("opt_lv"):
// it visits the levels in increasing order and matches the functions at
// each level under TSM, then returns the function part of the final
// i-cover. OSM level matching runs inside the Scheduler.
//
// A level that holds no node of f or c is skipped: its round would collect
// the pair set that the last executed round left, in which no two pairs
// TSM-match, since a greedy clique stops only when no uncovered pair
// matches all of its members. No round adds a variable, so the levels of f
// and c, taken once per call, decide every skip.
type OptLv struct {
	// Trace, when non-nil, receives one obs.LevelMatchEvent per level
	// that runs a round; skipped levels emit none.
	Trace obs.Tracer
}

// Name returns "opt_lv".
func (o *OptLv) Name() string { return "opt_lv" }

// Minimize runs level matching per Section 3.3 at every level of f and c,
// top-down.
func (o *OptLv) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	g, _ := o.steps(m, f, c, false)
	return g
}

// steps is the level loop behind Minimize and MinimizeAnytime. Every level
// of f and c is one step; a level cut short by an abort is traced with
// Aborted set.
func (o *OptLv) steps(m *bdd.Manager, f, c bdd.Ref, catch bool) (bdd.Ref, AbortInfo) {
	if c == bdd.Zero {
		panic("core: opt_lv called with empty care set")
	}
	run := stepRun{m: m, cur: ISF{f, c}, catch: catch}
	sc := lvScratchPool.Get().(*lvScratch) // one scratch serves every level
	defer lvScratchPool.Put(sc)
	sc.levels = m.AppendSupport(m.AppendSupport(sc.levels[:0], f), c)
	slices.Sort(sc.levels)
	for _, v := range slices.Compact(sc.levels) {
		if run.done() {
			break
		}
		var start time.Time
		if o.Trace != nil {
			start = time.Now()
		}
		var stats LevelMatchStats
		ok := run.step(run.phase("level %d", v), func(in ISF) (out ISF) {
			out, stats = minimizeAtLevel(m, in, v, TSM, sc)
			return out
		})
		if o.Trace != nil {
			stats.Aborted = !ok
			o.Trace.Emit(levelMatchEvent(int(v), TSM, stats, time.Since(start)))
		}
		if !ok {
			break
		}
	}
	return run.cur.F, run.info
}

// levelMatchEvent assembles the per-level trace event.
func levelMatchEvent(level int, cr Criterion, stats LevelMatchStats, d time.Duration) obs.LevelMatchEvent {
	return obs.LevelMatchEvent{
		Level: level, Criterion: cr.String(),
		Pairs: stats.Pairs, Edges: stats.Edges, Cliques: stats.Cliques,
		Replaced: stats.Replaced, Pruned: stats.Pruned,
		Aborted:  stats.Aborted,
		Duration: d,
	}
}
