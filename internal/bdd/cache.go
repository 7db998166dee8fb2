package bdd

// computedCache is a lossy, direct-mapped cache shared by the recursive
// operators (ITE, quantification, constrain, ...) and by the boolean match
// kernels (disjoint, MatchOSM, MatchTSM), whose verdicts are stored as the
// constant Refs One (true) and Zero (false). Entries are keyed by an
// operation tag plus up to four operand Refs; each key hashes to exactly one
// slot, and an insert overwrites whatever lives there. Correctness never
// depends on a hit.
//
// One slot per key is a measured choice. Most probes are cold, because the
// cache is flushed before every heuristic (below), and set-associative
// lookup with move-to-front cost more in scanning and shifting than its
// extra hits saved; see EXPERIMENTS.md, "Computed cache". The default size
// (defaultCacheBits) is kept small for the same reason.
//
// The cache is cleared by Manager.FlushCaches and Manager.GC. Clearing
// between heuristic invocations reproduces the measurement protocol of the
// paper (Section 4.1.1), where the garbage collector is invoked before each
// heuristic so that no heuristic profits from its predecessors' cached
// computations.
type computedCache struct {
	entries []cacheEntry // 1 << CacheBits slots
	mask    uint32       // len(entries) - 1
	gen     uint32       // current epoch; entries from older epochs are invalid
	stats   [opLast]opCounters
}

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
	opAndExists
	opConstrain
	opRestrict
	opCompose // compose tags add the variable index: opCompose + uint32(v)<<8
	opDisjoint
	opMatchXor
	opMatchTSM
	opLast
)

// opNames indexes the printable operation names by tag.
var opNames = [opLast]string{
	opITE:       "ite",
	opExists:    "exists",
	opAndExists: "and_exists",
	opConstrain: "constrain",
	opRestrict:  "restrict",
	opCompose:   "compose",
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
	c.entries = make([]cacheEntry, 1<<bits)
	c.mask = uint32(len(c.entries) - 1)
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

// slot returns the entry addressing (op, f, g, h, k). The fourth operand is
// used only by the four-operand match kernel; every other operation passes 0.
func (c *computedCache) slot(op uint32, f, g, h, k Ref) *cacheEntry {
	return &c.entries[hash3(uint32(f)*31+op, uint32(g), uint32(h)^uint32(k)*0x9e3779b1)&c.mask]
}

func (c *computedCache) lookup(op uint32, f, g, h, k Ref) (Ref, bool) {
	e := c.slot(op, f, g, h, k)
	if e.gen == c.gen && e.op == op && e.f == f && e.g == g && e.h == h && e.k == k {
		c.stats[opIndex(op)].hits++
		return e.result, true
	}
	c.stats[opIndex(op)].misses++
	return 0, false
}

func (c *computedCache) insert(op uint32, f, g, h, k, result Ref) {
	e := c.slot(op, f, g, h, k)
	if e.gen == c.gen && !(e.op == op && e.f == f && e.g == g && e.h == h && e.k == k) {
		// A live entry of another computation is displaced; charge the
		// eviction to the operation losing its result.
		c.stats[opIndex(e.op)].evictions++
	}
	*e = cacheEntry{op: op, f: f, g: g, h: h, k: k, result: result, gen: c.gen}
}

// FlushCaches clears the computed caches without reclaiming nodes. See the
// computedCache documentation for why the experiment harness calls this
// between heuristics.
func (m *Manager) FlushCaches() { m.cache.clear() }

// CacheOpStats reports one operation's computed-cache counters since the
// last flush. Evictions count entries of this operation overwritten by a
// later insert of a different key into the same slot.
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
