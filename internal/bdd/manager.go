package bdd

import "fmt"

// Manager owns the node arena, the unique table that enforces canonicity,
// the computed caches, and the external root registry. All Refs are relative
// to the Manager that produced them; Managers must not be mixed.
//
// A Manager is not safe for concurrent use. The minimization experiments are
// sequential by design (runtimes of individual heuristics are compared), so
// no internal locking is provided; callers that want parallelism use one
// Manager per goroutine.
type Manager struct {
	nodes   []node
	free    []uint32 // recycled node indexes (from GC)
	buckets []uint32 // unique-table heads, value = node index + 1
	mask    uint32   // len(buckets) - 1
	live    int      // number of live nodes, including the terminal

	initBuckets int // configured unique-table size, restored by Reset

	nvars int
	names []string

	cache computedCache

	roots map[Ref]int // external references with counts

	// Traversal scratch (see stamp.go): generation-stamped visited sets
	// shared by every analysis walk, GC marking and rehash dead-marking, so
	// hot-path traversals allocate nothing after warm-up.
	stamp    []uint32  // per-node generation stamps, grown with the arena
	varStamp []uint32  // per-variable generation stamps (support walks)
	stampGen uint32    // current traversal generation; 0 is never valid
	markBuf  []uint32  // reusable explicit stack / index buffer
	densMemo []float64 // per-node density memo, valid where stamp matches
	flatPos  []uint32  // per-node list position during Flatten, valid where stamp matches

	// Signature memo (see signature.go). Nodes are immutable until GC
	// recycles their slots, so memoized signatures stay valid across calls:
	// sigGen advances only when GC frees nodes, not per walk.
	sigMemo []sigEntry // per-node signature memo, valid where the entry's gen matches
	sigGen  uint32     // current signature epoch; 0 is never valid

	// Resource governance (see budget.go). budget is nil unless a caller
	// attached one; every kernel recursion guards its budgetStep call on
	// that nil check so the unbudgeted hot path pays a single branch.
	budget          *Budget
	budgetCountdown uint32 // steps until the next amortized limit check
	budgetBaseMade  uint64 // stNodesMade when the budget was attached

	// statistics
	stGCRuns    int
	stNodesMade uint64
	// Signature-memo statistics (see signature.go). stSigComputed counts
	// cold per-node signature computations.
	stSigComputed    uint64
	stSigInvalidated uint64
}

// Config carries optional Manager tuning knobs. The zero value selects
// reasonable defaults.
type Config struct {
	// InitialBuckets is the starting size of the unique table (rounded up
	// to a power of two). Default 1 << 12, capped at maxBuckets.
	InitialBuckets int
	// CacheBits selects the computed-cache size as 1 << CacheBits entries.
	// Default 14 (defaultCacheBits), capped at maxCacheBits.
	CacheBits int
}

// Caps keeping absurd Config values from overflowing the power-of-two
// arithmetic (ceilPow2) or attempting multi-gigabyte allocations up front.
const (
	maxBuckets   = 1 << 28
	maxCacheBits = 26
)

// defaultCacheBits sizes the computed cache at 2^14 entries of 28 bytes
// (448 KiB), so that it stays in a 2 MiB per-core L2 next to the node
// arena. Most probes miss anyway, because callers that reproduce the
// paper's protocol flush before every heuristic, and a larger table adds
// few hits but a CPU cache miss on the first read of nearly every slot: on
// the paper's experiment 2^14 and 2^15 entries ran fastest of 2^12 through
// 2^18, and 2^16 about 15% slower (EXPERIMENTS.md, "A computed cache that
// fits"). A loop that reuses more results between flushes, such as the
// micro/ite benchmark, runs faster with a larger CacheBits. The cache is
// lossy, so without a budget no Ref, node count or cover depends on its
// size.
const defaultCacheBits = 14

// normalize applies defaults and caps, returning a Config that is safe to
// allocate from on any platform.
func (c Config) normalize() Config {
	if c.InitialBuckets <= 0 {
		c.InitialBuckets = 1 << 12
	}
	c.InitialBuckets = ceilPow2(c.InitialBuckets)
	if c.CacheBits <= 0 {
		c.CacheBits = defaultCacheBits
	}
	if c.CacheBits > maxCacheBits {
		c.CacheBits = maxCacheBits
	}
	return c
}

// New creates a Manager with nvars variables, numbered 0..nvars-1 in order
// from the top of the diagram down.
func New(nvars int) *Manager {
	return NewWithConfig(nvars, Config{})
}

// NewWithConfig creates a Manager with explicit tuning parameters. The
// fresh state itself is defined by Reset: NewWithConfig only allocates.
func NewWithConfig(nvars int, cfg Config) *Manager {
	cfg = cfg.normalize()
	m := &Manager{
		buckets:     make([]uint32, cfg.InitialBuckets),
		initBuckets: cfg.InitialBuckets,
		roots:       make(map[Ref]int),
	}
	m.cache.init(cfg.CacheBits)
	m.Reset(nvars)
	return m
}

// Reset returns m to exactly the state New(nvars) (or NewWithConfig with
// m's original Config) produces, keeping the backing arrays: the arena, the
// unique table, the computed cache and the traversal scratch are reused
// rather than reallocated, so a caller that builds many small, short-lived
// diagrams pays for those allocations once. Every Ref obtained before the
// call is invalidated. Reset detaches any budget and zeroes the statistics
// counters.
//
// Because node indexes depend only on allocation order and an invalidated
// cache behaves exactly like an empty one, a reset manager reproduces a
// fresh manager's Refs, NodesMade and cache counters operation for
// operation.
func (m *Manager) Reset(nvars int) {
	if nvars < 0 {
		panic("bdd: negative variable count")
	}
	// Node 0 is the terminal.
	m.nodes = append(m.nodes[:0], node{level: terminalLevel})
	m.free = m.free[:0]
	m.buckets = m.buckets[:m.initBuckets]
	clear(m.buckets)
	m.mask = uint32(m.initBuckets - 1)
	m.live = 1
	m.nvars = nvars
	m.names = m.names[:0]
	clear(m.roots)
	m.cache.clear()
	m.invalidateSignatures()
	m.budget = nil
	m.budgetCountdown = 0
	m.budgetBaseMade = 0
	m.stGCRuns = 0
	m.stNodesMade = 0
	m.stSigComputed = 0
	m.stSigInvalidated = 0
}

// ceilPow2 rounds n up to the next power of two, saturating at maxBuckets so
// absurd requests can neither overflow the shift nor demand an allocation
// larger than the arena could ever need.
func ceilPow2(n int) int {
	if n >= maxBuckets {
		return maxBuckets
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NumVars returns the number of variables managed.
func (m *Manager) NumVars() int { return m.nvars }

// AddVar appends a new variable at the bottom of the order and returns it.
func (m *Manager) AddVar() Var {
	v := Var(m.nvars)
	m.nvars++
	return v
}

// SetVarName attaches a human-readable name to v, used by DOT export and
// cube formatting.
func (m *Manager) SetVarName(v Var, name string) {
	for len(m.names) <= int(v) {
		m.names = append(m.names, "")
	}
	m.names[v] = name
}

// VarName returns the name attached to v, or a generated "x<i>" fallback.
func (m *Manager) VarName(v Var) string {
	if int(v) < len(m.names) && m.names[v] != "" {
		return m.names[v]
	}
	return fmt.Sprintf("x%d", v)
}

// NumNodes returns the number of live nodes in the arena, including the
// terminal node.
func (m *Manager) NumNodes() int { return m.live }

// NodesMade returns the cumulative number of node allocations performed,
// a rough work measure used by benchmarks.
func (m *Manager) NodesMade() uint64 { return m.stNodesMade }

// Level returns the level of f's top variable, or a value greater than any
// variable level if f is constant.
func (m *Manager) Level(f Ref) int32 { return m.nodes[f.index()].level }

// TopVar returns f's top variable. It panics if f is constant.
func (m *Manager) TopVar(f Ref) Var {
	l := m.Level(f)
	if l == terminalLevel {
		panic("bdd: TopVar of constant")
	}
	return Var(l)
}

// MkVar returns the function of the single positive literal v.
func (m *Manager) MkVar(v Var) Ref {
	m.checkVar(v)
	return m.mkNode(int32(v), One, Zero)
}

// MkNotVar returns the function of the single negative literal v.
func (m *Manager) MkNotVar(v Var) Ref { return m.MkVar(v).Not() }

func (m *Manager) checkVar(v Var) {
	if int(v) < 0 || int(v) >= m.nvars {
		panic(fmt.Sprintf("bdd: variable x%d out of range [0,%d)", v, m.nvars))
	}
}

// checkRef validates that f points into the arena; used by exported entry
// points to catch cross-manager Refs early.
func (m *Manager) checkRef(f Ref) {
	if int(f.index()) >= len(m.nodes) {
		panic(fmt.Sprintf("bdd: foreign or stale Ref %d", f))
	}
}

// mkNode returns the canonical node (level, high, low), applying the
// deletion rule (equal children) and the complement-edge normalization
// (high edge never complemented), and hash-consing through the unique
// table (merging rule).
func (m *Manager) mkNode(level int32, high, low Ref) Ref {
	if m.budget != nil {
		m.budgetStep()
	}
	if high == low {
		return high
	}
	neg := false
	if high.IsComplement() {
		high = high.Not()
		low = low.Not()
		neg = true
	}
	h := hash3(uint32(level), uint32(high), uint32(low)) & m.mask
	for i := m.buckets[h]; i != 0; i = m.nodes[i-1].next {
		n := &m.nodes[i-1]
		if n.level == level && n.high == high && n.low == low {
			r := Ref((i - 1) << 1)
			if neg {
				r = r.Not()
			}
			return r
		}
	}
	var idx uint32
	if len(m.free) > 0 {
		idx = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
		m.nodes[idx] = node{level: level, high: high, low: low, next: m.buckets[h]}
	} else {
		idx = uint32(len(m.nodes))
		m.nodes = append(m.nodes, node{level: level, high: high, low: low, next: m.buckets[h]})
	}
	m.buckets[h] = idx + 1
	m.live++
	m.stNodesMade++
	if m.live > len(m.buckets)*2 {
		m.growBuckets()
	}
	r := Ref(idx << 1)
	if neg {
		r = r.Not()
	}
	return r
}

func (m *Manager) growBuckets() {
	nb := len(m.buckets) * 2
	if cap(m.buckets) >= nb {
		m.buckets = m.buckets[:nb] // capacity kept by Reset; rehash clears it
	} else {
		m.buckets = make([]uint32, nb)
	}
	m.mask = uint32(nb - 1)
	m.rehash()
}

// rehash rebuilds the unique table from the live arena contents. Dead nodes
// (present in the free list) are skipped via the shared generation-stamp
// scratch — rehash runs on the hot allocation path (every bucket growth), so
// it must not allocate a per-call set. Callers must guarantee that every
// node outside the free list is valid.
func (m *Manager) rehash() {
	for i := range m.buckets {
		m.buckets[i] = 0
	}
	haveDead := len(m.free) > 0
	var gen uint32
	if haveDead {
		gen = m.newStamp()
		for _, i := range m.free {
			m.stamp[i] = gen
		}
	}
	for i := 1; i < len(m.nodes); i++ {
		if haveDead && m.stamp[i] == gen {
			continue
		}
		n := &m.nodes[i]
		h := hash3(uint32(n.level), uint32(n.high), uint32(n.low)) & m.mask
		n.next = m.buckets[h]
		m.buckets[h] = uint32(i) + 1
	}
}

// hash3 mixes three words; a small multiplicative scheme that spreads the
// low bits well enough for power-of-two tables.
func hash3(a, b, c uint32) uint32 {
	h := a*0x9e3779b1 ^ b*0x85ebca77 ^ c*0xc2b2ae3d
	h ^= h >> 15
	h *= 0x27d4eb2f
	h ^= h >> 13
	return h
}

// branches returns the cofactors of f with respect to the variable at
// level. If f's top level is below level (f does not depend on the
// variable), both cofactors are f itself; this mirrors bdd_get_branches in
// the paper's Figure 2.
func (m *Manager) branches(f Ref, level int32) (high, low Ref) {
	n := &m.nodes[f.index()]
	if n.level != level {
		return f, f
	}
	if f.IsComplement() {
		return n.high.Not(), n.low.Not()
	}
	return n.high, n.low
}

// Branches exposes the cofactors of f by its own top variable. For a
// constant it returns (f, f).
func (m *Manager) Branches(f Ref) (high, low Ref) {
	m.checkRef(f)
	return m.branches(f, m.Level(f))
}

// MkNode builds the function "if v then high else low". It panics unless
// both children are independent of variables at or above v's level,
// preserving the ordering invariant.
func (m *Manager) MkNode(v Var, high, low Ref) Ref {
	m.checkVar(v)
	m.checkRef(high)
	m.checkRef(low)
	if m.Level(high) <= int32(v) || m.Level(low) <= int32(v) {
		panic("bdd: MkNode children must be below the node variable")
	}
	return m.mkNode(int32(v), high, low)
}
