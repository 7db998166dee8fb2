package bdd

// computedCache is a lossy, 4-way set-associative cache shared by the
// recursive operators (ITE, quantification, constrain, ...) and by the
// boolean match kernels (disjoint, MatchOSM, MatchTSM), whose verdicts are
// stored as the constant Refs One (true) and Zero (false). Entries are
// keyed by an operation tag plus up to four operand Refs and grouped into
// sets of cacheWays consecutive slots; within a set, entries are kept in
// most-recently-used order, so a hit promotes its entry to way 0 and an
// insert evicts the coldest way. Correctness never depends on a hit; the
// associativity only reduces how often the interleaved recursions of the
// minimization heuristics knock out each other's results (the old
// direct-mapped design lost an entry on every collision).
//
// The cache is cleared by Manager.FlushCaches and Manager.GC. Clearing
// between heuristic invocations reproduces the measurement protocol of the
// paper (Section 4.1.1), where the garbage collector is invoked before each
// heuristic so that no heuristic profits from its predecessors' cached
// computations.
type computedCache struct {
	entries []cacheEntry // cacheWays * numSets slots; set s is [s*cacheWays, s*cacheWays+cacheWays)
	setMask uint32       // numSets - 1
	gen     uint32       // current epoch; entries from older epochs are invalid
	stats   [opLast]opCounters
}

// cacheWays is the set associativity. Four ways keeps a set within two
// 64-byte cache lines while absorbing the common three-operator interleaving
// (ITE + constrain + exists) of the minimization inner loops.
const cacheWays = 4

type cacheEntry struct {
	op         uint32
	f, g, h, k Ref
	result     Ref
	gen        uint32 // epoch the entry was written in; live iff == cache.gen
}

// opCounters aggregates per-operation cache statistics.
type opCounters struct {
	hits, misses, evictions uint64
}

// Operation tags for the computed cache.
const (
	opITE uint32 = iota + 1
	opExists
	opForall
	opAndExists
	opConstrain
	opRestrict
	opCompose // compose tags add the variable index: opCompose + uint32(v)<<8
	opRename
	opSupport
	opDisjoint
	opMatchXor
	opMatchTSM
	opLast
)

// opNames indexes the printable operation names by tag.
var opNames = [opLast]string{
	opITE:       "ite",
	opExists:    "exists",
	opForall:    "forall",
	opAndExists: "and_exists",
	opConstrain: "constrain",
	opRestrict:  "restrict",
	opCompose:   "compose",
	opRename:    "rename",
	opSupport:   "support",
	opDisjoint:  "disjoint",
	opMatchXor:  "match_xor",
	opMatchTSM:  "match_tsm",
}

// opIndex maps an operation tag to its counter slot. Compose tags carry the
// substituted variable in the high bits; the low byte identifies the family.
func opIndex(op uint32) uint32 {
	i := op & 0xff
	if i >= uint32(opLast) {
		i = 0
	}
	return i
}

func (c *computedCache) init(bits int) {
	total := 1 << bits
	if total < cacheWays {
		total = cacheWays
	}
	c.entries = make([]cacheEntry, total)
	c.setMask = uint32(total/cacheWays - 1)
	c.gen = 1 // zero-value entries carry gen 0 and are therefore invalid
}

// clear invalidates every entry by advancing the epoch — O(1), so the
// flush-per-heuristic measurement protocol costs nothing per flush. Only on
// the (practically unreachable) epoch wraparound is the array zeroed, to
// keep stale entries from resurrecting under a reused epoch.
func (c *computedCache) clear() {
	c.gen++
	if c.gen == 0 {
		for i := range c.entries {
			c.entries[i] = cacheEntry{}
		}
		c.gen = 1
	}
	c.stats = [opLast]opCounters{}
}

// set returns the ways of the set addressing (op, f, g, h, k). The fourth
// operand is used only by the four-operand match kernel; every other
// operation passes 0.
func (c *computedCache) set(op uint32, f, g, h, k Ref) []cacheEntry {
	base := (hash3(uint32(f)*31+op, uint32(g), uint32(h)^uint32(k)*0x9e3779b1) & c.setMask) * cacheWays
	return c.entries[base : base+cacheWays : base+cacheWays]
}

func (c *computedCache) lookup(op uint32, f, g, h, k Ref) (Ref, bool) {
	set := c.set(op, f, g, h, k)
	for i := range set {
		e := &set[i]
		if e.gen == c.gen && e.op == op && e.f == f && e.g == g && e.h == h && e.k == k {
			r := e.result
			if i != 0 {
				// Promote to MRU so the set evicts cold entries first.
				hit := *e
				copy(set[1:i+1], set[:i])
				set[0] = hit
			}
			c.stats[opIndex(op)].hits++
			return r, true
		}
	}
	c.stats[opIndex(op)].misses++
	return 0, false
}

func (c *computedCache) insert(op uint32, f, g, h, k, result Ref) {
	set := c.set(op, f, g, h, k)
	victim := cacheWays - 1
	for i := range set {
		e := &set[i]
		if e.gen != c.gen || (e.op == op && e.f == f && e.g == g && e.h == h && e.k == k) {
			victim = i
			break
		}
	}
	if v := &set[victim]; v.gen == c.gen && !(v.op == op && v.f == f && v.g == g && v.h == h && v.k == k) {
		// A live entry of another computation is displaced; charge the
		// eviction to the operation losing its result.
		c.stats[opIndex(v.op)].evictions++
	}
	copy(set[1:victim+1], set[:victim])
	set[0] = cacheEntry{op: op, f: f, g: g, h: h, k: k, result: result, gen: c.gen}
}

// FlushCaches clears the computed caches without reclaiming nodes. See the
// computedCache documentation for why the experiment harness calls this
// between heuristics.
func (m *Manager) FlushCaches() { m.cache.clear() }

// CacheStats returns the computed-cache hit and miss counters accumulated
// since the last flush, summed over all operations.
func (m *Manager) CacheStats() (hits, misses uint64) {
	for _, s := range m.cache.stats {
		hits += s.hits
		misses += s.misses
	}
	return hits, misses
}

// CacheOpStats reports one operation's computed-cache counters since the
// last flush. Evictions count entries of this operation displaced by later
// inserts into a full set.
type CacheOpStats struct {
	Op                      string
	Hits, Misses, Evictions uint64
}

// CacheStatsByOp returns the per-operation computed-cache counters since the
// last flush, in a fixed operation order, omitting operations with no
// activity.
func (m *Manager) CacheStatsByOp() []CacheOpStats {
	var out []CacheOpStats
	for op := uint32(1); op < uint32(opLast); op++ {
		s := m.cache.stats[op]
		if s.hits == 0 && s.misses == 0 && s.evictions == 0 {
			continue
		}
		out = append(out, CacheOpStats{Op: opNames[op], Hits: s.hits, Misses: s.misses, Evictions: s.evictions})
	}
	return out
}
