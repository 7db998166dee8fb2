package core

import (
	"math/bits"
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
	// Path holds, for each level above the collection boundary, the value
	// taken to reach the pair on its first visit (CubeZero, CubeOne, or
	// DontCare when the variable did not appear on the path — the paper's
	// "2").
	Path []bdd.CubeValue
	// FSig and CSig are the 64-assignment semantic signatures of F and C
	// (bdd.Signature), filled by collectLevelPairs. The solvers use them to
	// reject provably non-matching pairs with one word operation before any
	// kernel recursion runs; zero signatures (pairs built by hand) disable
	// pruning and are always safe.
	FSig, CSig uint64
	// pathVal/pathCare pack Path into words (level i at bit k−i−1, so the
	// masked XOR below *is* the distance sum): filled by collectLevelPairs
	// when the path fits in 64 bits, signalled by pathLen > 0. Hand-built
	// pairs leave pathLen 0 and take the slice-walking PairDistance.
	pathVal, pathCare uint64
	pathLen           uint8
}

// pairDist is PairDistance on the packed path words: the bit layout makes
// the care-masked XOR equal to the weighted sum directly.
func pairDist(a, b *LevelPair) uint64 {
	if a.pathLen > 0 && a.pathLen == b.pathLen {
		return (a.pathVal ^ b.pathVal) & a.pathCare & b.pathCare
	}
	return PairDistance(*a, *b)
}

// isfSet is an open-addressing hash set of ISF pairs used as the
// collector's visited set: the walk probes it once per reachable (F, C)
// pair. Keys pack both Refs into one word, offset by one so the zero word
// can mark empty slots. isfSet and isfMap stay hand-rolled because Go
// maps emptied with clear() made opt_lv slower in every one of six
// alternating Table 3 runs (median 0.33 s against 0.50 s over 714 calls;
// EXPERIMENTS.md, "Level-matching tables").
type isfSet struct {
	slots []uint64
	used  int
}

// isfKey packs an ISF into one word, offset by one so a zero word can mark
// an empty slot in the open-addressing tables below.
func isfKey(in ISF) uint64 { return (uint64(in.F)<<32 | uint64(in.C)) + 1 }

func (s *isfSet) reset(hint int) {
	want := 16
	for want < 2*hint {
		want <<= 1
	}
	if cap(s.slots) >= want {
		s.slots = s.slots[:want]
		for i := range s.slots {
			s.slots[i] = 0
		}
	} else {
		s.slots = make([]uint64, want)
	}
	s.used = 0
}

// visit reports whether the pair was already present, inserting it if not.
func (s *isfSet) visit(in ISF) bool {
	key := isfKey(in)
	mask := uint64(len(s.slots) - 1)
	i := (key * 0x9e3779b97f4a7c15) >> 32 & mask
	for {
		switch s.slots[i] {
		case key:
			return true
		case 0:
			s.slots[i] = key
			s.used++
			if 4*s.used > 3*len(s.slots) {
				s.grow()
			}
			return false
		}
		i = (i + 1) & mask
	}
}

func (s *isfSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	mask := uint64(len(s.slots) - 1)
	for _, key := range old {
		if key == 0 {
			continue
		}
		i := (key * 0x9e3779b97f4a7c15) >> 32 & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = key
	}
}

// isfMap is the ISF→ISF companion of isfSet, backing the rebuilder's memo
// table: one probe per rebuilt node pair, on scratch-owned memory.
type isfMap struct {
	keys []uint64
	vals []ISF
	used int
}

func (t *isfMap) reset(hint int) {
	want := 16
	for want < 2*hint {
		want <<= 1
	}
	if cap(t.keys) >= want {
		t.keys = t.keys[:want]
		for i := range t.keys {
			t.keys[i] = 0
		}
		t.vals = t.vals[:want]
	} else {
		t.keys = make([]uint64, want)
		t.vals = make([]ISF, want)
	}
	t.used = 0
}

func (t *isfMap) get(in ISF) (ISF, bool) {
	key := isfKey(in)
	mask := uint64(len(t.keys) - 1)
	i := key * 0x9e3779b97f4a7c15 >> 32 & mask
	for {
		switch t.keys[i] {
		case key:
			return t.vals[i], true
		case 0:
			return ISF{}, false
		}
		i = (i + 1) & mask
	}
}

func (t *isfMap) put(in, v ISF) {
	if 4*(t.used+1) > 3*len(t.keys) {
		t.grow()
	}
	key := isfKey(in)
	mask := uint64(len(t.keys) - 1)
	i := key * 0x9e3779b97f4a7c15 >> 32 & mask
	for t.keys[i] != 0 && t.keys[i] != key {
		i = (i + 1) & mask
	}
	if t.keys[i] == 0 {
		t.used++
	}
	t.keys[i] = key
	t.vals[i] = v
}

func (t *isfMap) grow() {
	oldK, oldV := t.keys, t.vals
	t.keys = make([]uint64, 2*len(oldK))
	t.vals = make([]ISF, 2*len(oldK))
	mask := uint64(len(t.keys) - 1)
	for j, key := range oldK {
		if key == 0 {
			continue
		}
		i := key * 0x9e3779b97f4a7c15 >> 32 & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i] = key
		t.vals[i] = oldV[j]
	}
}

// lvScratch pools the per-level allocations of the level matcher — the
// collector's visited set and path buffers, the clique cover's bitsets and
// the replacement/rebuild maps — so a full per-level sweep (OptLv) pays
// for them once per Minimize call instead of once per level. A scratch is
// single-goroutine like the Manager; MinimizeAtLevel takes one from the
// pool per round, OptLv.Minimize reuses one across its levels.
type lvScratch struct {
	seen       isfSet          // collector's visited set
	path       []bdd.CubeValue // collector's current path
	pathBuf    []bdd.CubeValue // backing slab for the collected pairs' Paths
	pairs      []LevelPair     // collected pairs
	refs       []bdd.Ref       // signature batch input
	sigs       []uint64        // signature batch output
	adj        []uint64        // clique cover: bitset adjacency rows
	deg        []int           // clique cover: vertex degrees
	order      []int           // clique cover: seed order
	covered    []uint64        // clique cover: covered-vertex bitset
	cand       []uint64        // clique cover: candidate bitset
	minDist    []uint64        // clique cover: lightest edge into the clique
	cliqueBuf  []int           // clique cover: member slab
	cliqueEnds []int           // clique cover: end offset of each clique in the slab
	degCnt     []int           // clique cover: counting-sort buckets
	cliques    [][]int         // clique cover: views into the slab
	repl       map[ISF]ISF     // replacement map of the current level
	memo       isfMap          // rebuilder memo
}

func newLvScratch() *lvScratch {
	return &lvScratch{repl: make(map[ISF]ISF)}
}

// lvScratchPool recycles scratches across minimization calls. Only entry
// points whose results do not alias scratch memory may use it
// (MinimizeAtLevel, the OptLv level loop); collectLevelPairs and the level
// solvers return scratch-backed slices/maps, valid until the scratch's
// next use.
var lvScratchPool = sync.Pool{New: func() any { return newLvScratch() }}

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
	sc.seen.reset(sc.seen.used) // last round's population sizes this one
	if cap(sc.path) < int(i)+1 {
		sc.path = make([]bdd.CubeValue, int(i)+1)
	} else {
		sc.path = sc.path[:int(i)+1]
	}
	for p := range sc.path {
		sc.path[p] = bdd.DontCare
	}
	sc.pairs = sc.pairs[:0]
	sc.pathBuf = sc.pathBuf[:0]
	c := &collector{m: m, level: int32(i), sc: sc}
	c.walk(in)
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

func (c *collector) walk(in ISF) {
	sc := c.sc
	if sc.seen.visit(in) {
		return
	}
	fl, cl := c.m.Level(in.F), c.m.Level(in.C)
	top := min(fl, cl)
	if top > c.level {
		// Copy the path into the shared slab. Appends never mutate the
		// slab's earlier segments, so previously taken Path slices stay
		// intact even when the slab reallocates on growth.
		start := len(sc.pathBuf)
		sc.pathBuf = append(sc.pathBuf, sc.path...)
		p := LevelPair{
			ISF:  in,
			Path: sc.pathBuf[start:len(sc.pathBuf):len(sc.pathBuf)],
		}
		if k := len(sc.path); k <= 64 {
			var val, care uint64
			for lvl, v := range sc.path {
				if v == bdd.DontCare {
					continue
				}
				bit := uint(k - lvl - 1)
				care |= 1 << bit
				if v == bdd.CubeOne {
					val |= 1 << bit
				}
			}
			p.pathVal, p.pathCare, p.pathLen = val, care, uint8(k)
		}
		sc.pairs = append(sc.pairs, p)
		return
	}
	fT, fE := branchAt(c.m, in.F, top)
	cT, cE := branchAt(c.m, in.C, top)
	sc.path[top] = bdd.CubeOne
	c.walk(ISF{fT, cT})
	sc.path[top] = bdd.CubeZero
	c.walk(ISF{fE, cE})
	sc.path[top] = bdd.DontCare
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

// PairDistance is the distance measure of Section 3.3.2 (after Touati et
// al.) between the first-visit paths of two collected pairs rooted below
// level k: dist(g,h) = Σ_i |x_i^g − x_i^h| · 2^(k−i−1), summed over the
// levels i where both paths assign a value. Siblings have distance 1;
// smaller distances identify "nearby" functions whose matches are
// preferred when building cliques.
func PairDistance(a, b LevelPair) uint64 {
	k := len(a.Path)
	if len(b.Path) < k {
		k = len(b.Path)
	}
	var d uint64
	for i := 0; i < k; i++ {
		va, vb := a.Path[i], b.Path[i]
		if va == bdd.DontCare || vb == bdd.DontCare {
			continue
		}
		if va != vb {
			d += uint64(1) << uint(k-i-1)
		}
	}
	return d
}

// solveOSMLevel solves the function matching minimization (FMM) problem
// exactly for the OSM criterion (Proposition 10): build the directed
// matching graph (DMG) with an edge j→k iff pair j OSM-matches pair k,
// then map every vertex to a sink reachable from it. The sinks are the
// minimum set of i-covers. The returned map sends every replaced pair's
// ISF to its i-cover; unreplaced (sink) pairs are absent. It also reports
// the DMG's edge count and the number of candidate pairs rejected by the
// signature filter, for tracing.
func solveOSMLevel(m *bdd.Manager, pairs []LevelPair) (map[ISF]ISF, int, int) {
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
	repl := make(map[ISF]ISF)
	for j := 0; j < n; j++ {
		s := follow(j)
		if s != j && pairs[j].ISF != pairs[s].ISF {
			repl[pairs[j].ISF] = pairs[s].ISF
		}
	}
	return repl, edges, pruned
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
// It also reports the matching graph's edge count, the number of
// non-singleton cliques folded, and the signature-pruned pair count, for
// tracing. The returned map is sc.repl: valid until the next solve on the
// same scratch.
func solveTSMLevel(m *bdd.Manager, pairs []LevelPair, sc *lvScratch) (map[ISF]ISF, int, int, int) {
	cliques, edges, pruned := tsmCliqueCover(m, pairs, true, sc)
	folded := 0
	repl := sc.repl
	clear(repl)
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
				repl[pairs[v].ISF] = ic
			}
		}
	}
	return repl, edges, folded, pruned
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
func rebuildWithReplacements(m *bdd.Manager, in ISF, i bdd.Var, repl map[ISF]ISF, memo *isfMap) ISF {
	r := &rebuilder{m: m, level: int32(i), repl: repl, memo: memo}
	return r.rebuild(in)
}

type rebuilder struct {
	m     *bdd.Manager
	level int32
	repl  map[ISF]ISF
	memo  *isfMap
}

func (r *rebuilder) rebuild(in ISF) ISF {
	fl, cl := r.m.Level(in.F), r.m.Level(in.C)
	top := min(fl, cl)
	if top > r.level {
		if out, ok := r.repl[in]; ok {
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
	var repl map[ISF]ISF
	switch cr {
	case OSM:
		repl, stats.Edges, stats.Pruned = solveOSMLevel(m, pairs)
	case TSM:
		repl, stats.Edges, stats.Cliques, stats.Pruned = solveTSMLevel(m, pairs, sc)
	default:
		panic("core: level matching supports OSM and TSM")
	}
	stats.Replaced = len(repl)
	if len(repl) == 0 {
		return in, stats
	}
	sc.memo.reset(sc.memo.used)
	return rebuildWithReplacements(m, in, i, repl, &sc.memo), stats
}

// OptLv is the level-matching heuristic evaluated in the paper ("opt_lv"):
// it visits the levels in increasing order and matches the functions at
// each level under TSM, then returns the function part of the final
// i-cover. OSM level matching runs inside the Scheduler.
type OptLv struct {
	// Trace, when non-nil, receives one obs.LevelMatchEvent per level.
	Trace obs.Tracer
}

// Name returns "opt_lv".
func (o *OptLv) Name() string { return "opt_lv" }

// Minimize runs level matching per Section 3.3 at every level, top-down.
func (o *OptLv) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	g, _ := o.steps(m, f, c, false)
	return g
}

// steps is the level loop behind Minimize and MinimizeAnytime. Every level
// is one step; a level cut short by an abort is traced with Aborted set.
func (o *OptLv) steps(m *bdd.Manager, f, c bdd.Ref, catch bool) (bdd.Ref, AbortInfo) {
	if c == bdd.Zero {
		panic("core: opt_lv called with empty care set")
	}
	run := stepRun{m: m, cur: ISF{f, c}, catch: catch}
	sc := lvScratchPool.Get().(*lvScratch) // one scratch serves every level
	defer lvScratchPool.Put(sc)
	for i := 0; i < m.NumVars() && !run.done(); i++ {
		var start time.Time
		if o.Trace != nil {
			start = time.Now()
		}
		var stats LevelMatchStats
		ok := run.step(run.phase("level %d", i), func(in ISF) (out ISF) {
			out, stats = minimizeAtLevel(m, in, bdd.Var(i), TSM, sc)
			return out
		})
		if o.Trace != nil {
			stats.Aborted = !ok
			o.Trace.Emit(levelMatchEvent(i, TSM, stats, time.Since(start)))
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
