package bdd

// Bit-parallel semantic signatures.
//
// A signature is the truth vector of a function on 64 fixed pseudo-random
// assignments, packed into one word: bit-lane j holds the function's value
// under assignment j, where assignment j gives the variable at level l the
// j-th bit of varSignature(l). One O(|BDD|) walk evaluates all 64
// assignments at once with three word operations per node, so a signature
// costs about as much as Size.
//
// Signatures are exact point evaluations, which makes them sound
// necessary-condition filters for the match kernels: a nonzero bit in
// (sig(f1)⊕sig(f2))·sig(c1)·sig(c2) exhibits a concrete assignment on
// which f1 and f2 disagree while both care, so the pair provably cannot
// TSM-match and the kernel need not run (SigMatchTSM; this is the
// simulation-vector filtering that powers SAT-sweeping). The converse does
// not hold — an all-zero word proves nothing — so a signature hit is always
// confirmed by the kernel.
//
// The assignment matrix is a pure function of the variable level and the
// fixed sigSeed: no per-Manager state, no source of nondeterminism.
// Deterministic runs therefore prune identically, keeping traces
// byte-identical — a property the golden-trace test pins.
//
// The filters earn their code on uncached work: with the kernel guards
// and the level matcher's pair fingerprints both removed, bddmind's
// serve-cold benchmark had lower throughput and fewer requests inside its
// latency limit in six of six alternating pairs, while table3 stayed flat
// (EXPERIMENTS.md, "Semantic signatures").

// sigSeed fixes the pseudo-random assignment matrix for all Managers.
// Changing it changes which pairs are pruned (never the results), so it is
// a compile-time constant, not a knob.
const sigSeed uint64 = 0x5bd1e995bddbdd64

// varSignature returns the 64 assignment bits of the variable at level l.
func varSignature(l int32) uint64 {
	return splitmix64(sigSeed + uint64(uint32(l)))
}

// splitmix64 is the finalizer of the SplitMix64 generator, a strong 64-bit
// mixer used to derive the per-variable assignment rows.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AppendSignatures appends the signature of every f in fs to dst and
// returns the extended slice: f evaluated on the 64 fixed assignments, in
// one walk over f's not-yet-memoized nodes. Deterministic across runs and
// Managers (for equal functions under equal orderings). Nodes shared
// between the functions (and with any earlier signature query this GC
// epoch) are visited once — the batch form the level matcher uses to
// fingerprint its collected pairs.
//
// Per-node signatures are memoized for the lifetime of the node: a node is
// immutable until GC recycles its slot, so the memo is invalidated only
// when GC actually frees nodes (Manager.sigGen). Repeated signature
// queries — the level matcher fingerprints overlapping pair sets at every
// level, and the match kernels consult node signatures on every query —
// therefore cost one array read per node after the first walk.
func (m *Manager) AppendSignatures(dst []uint64, fs ...Ref) []uint64 {
	for _, f := range fs {
		m.checkRef(f)
	}
	m.growSigMemo()
	for _, f := range fs {
		dst = append(dst, m.signature(f))
	}
	return dst
}

// sigEntry is one node's memoized signature together with the epoch it was
// written in. Keeping the epoch next to the word means a memo probe — a
// stamp check followed by the signature load — touches one cache line, not
// two parallel arrays.
type sigEntry struct {
	sig uint64
	gen uint32 // valid iff == Manager.sigGen
	_   uint32
}

// growSigMemo sizes the per-node signature memo to the arena; validity of
// an entry is gated by the signature epoch, so no clearing is needed.
func (m *Manager) growSigMemo() {
	if len(m.sigMemo) < len(m.nodes) {
		m.sigMemo = append(m.sigMemo, make([]sigEntry, len(m.nodes)-len(m.sigMemo))...)
	}
}

// SigStats reports signature-memo activity. Computed counts cold per-node
// signature computations (warm memo hits are deliberately uncounted: they
// sit on the match kernels' innermost path).
type SigStats struct {
	Computed      uint64 // cold per-node signature computations
	Invalidations uint64 // whole-memo invalidations (GC epochs dropped)
}

// SigStats returns the manager's signature-memo counters.
func (m *Manager) SigStats() SigStats {
	return SigStats{Computed: m.stSigComputed, Invalidations: m.stSigInvalidated}
}

// invalidateSignatures drops every memoized signature; called when GC puts
// node slots on the free list, after which a slot may be rebuilt as a
// different function.
func (m *Manager) invalidateSignatures() {
	m.stSigInvalidated++
	m.sigGen++
	if m.sigGen == 0 { // epoch wraparound: reset the stamps explicitly
		for i := range m.sigMemo {
			m.sigMemo[i].gen = 0
		}
		m.sigGen = 1
	}
}

// signature is split so the warm path — a memoized node, the overwhelmingly
// common case inside the match-kernel recursions — inlines at call sites;
// the recursive first-visit walk lives in signatureSlow.
func (m *Manager) signature(f Ref) uint64 {
	// Slot 0 (the terminal) is never stamped, so a terminal Ref falls
	// through to signatureSlow's constant case and this single compare
	// covers both "terminal" and "not yet memoized".
	if e := &m.sigMemo[f.index()]; e.gen == m.sigGen {
		// XOR with all-ones when the complement bit is set, branchlessly.
		return e.sig ^ -uint64(f&1)
	}
	return m.signatureSlow(f)
}

func (m *Manager) signatureSlow(f Ref) uint64 {
	idx := f.index()
	var s uint64
	switch e := &m.sigMemo[idx]; {
	case idx == 0:
		s = ^uint64(0) // the terminal One holds on every assignment
	case e.gen == m.sigGen:
		s = e.sig
	default:
		n := &m.nodes[idx]
		v := varSignature(n.level)
		s = v&m.signature(n.high) | ^v&m.signature(n.low)
		m.sigMemo[idx] = sigEntry{sig: s, gen: m.sigGen}
		m.stSigComputed++
	}
	if f.IsComplement() {
		return ^s
	}
	return s
}

// The sigRefute helpers are the kernels' per-node refutation tests, batched
// into one call per recursion step: when every operand's signature is
// already memoized (the overwhelmingly common case — the level matcher
// fingerprints all pair roots up front), the test is a handful of loads and
// word operations with no further calls.

// sigRefuteTSM reports whether the signatures prove (f⊕g)·c1·c2 ≠ 0.
func (m *Manager) sigRefuteTSM(f, g, c1, c2 Ref) bool {
	gen, memo := m.sigGen, m.sigMemo
	ef, eg := &memo[f.index()], &memo[g.index()]
	e1, e2 := &memo[c1.index()], &memo[c2.index()]
	if ef.gen == gen && eg.gen == gen && e1.gen == gen && e2.gen == gen {
		sf := ef.sig ^ -uint64(f&1)
		sg := eg.sig ^ -uint64(g&1)
		return (sf^sg)&(e1.sig^-uint64(c1&1))&(e2.sig^-uint64(c2&1)) != 0
	}
	return (m.signature(f)^m.signature(g))&m.signature(c1)&m.signature(c2) != 0
}

// sigRefuteXor reports whether the signatures prove (f⊕g)·c ≠ 0.
func (m *Manager) sigRefuteXor(f, g, c Ref) bool {
	gen, memo := m.sigGen, m.sigMemo
	ef, eg, ec := &memo[f.index()], &memo[g.index()], &memo[c.index()]
	if ef.gen == gen && eg.gen == gen && ec.gen == gen {
		sf := ef.sig ^ -uint64(f&1)
		sg := eg.sig ^ -uint64(g&1)
		return (sf^sg)&(ec.sig^-uint64(c&1)) != 0
	}
	return (m.signature(f)^m.signature(g))&m.signature(c) != 0
}

// sigRefuteDisjoint reports whether the signatures prove f·g ≠ 0.
func (m *Manager) sigRefuteDisjoint(f, g Ref) bool {
	gen, memo := m.sigGen, m.sigMemo
	ef, eg := &memo[f.index()], &memo[g.index()]
	if ef.gen == gen && eg.gen == gen {
		return (ef.sig^-uint64(f&1))&(eg.sig^-uint64(g&1)) != 0
	}
	return m.signature(f)&m.signature(g) != 0
}

// sigRefuteLeq reports whether the signatures prove f ≰ g.
func (m *Manager) sigRefuteLeq(f, g Ref) bool {
	gen, memo := m.sigGen, m.sigMemo
	ef, eg := &memo[f.index()], &memo[g.index()]
	if ef.gen == gen && eg.gen == gen {
		return (ef.sig^-uint64(f&1))&^(eg.sig^-uint64(g&1)) != 0
	}
	return m.signature(f)&^m.signature(g) != 0
}

// SigMatchOSM reports whether the signatures leave an OSM match of
// [f1, c1] against [f2, c2] possible. False is a proof of mismatch; true
// is inconclusive and must be confirmed with Manager.MatchOSM.
func SigMatchOSM(f1, c1, f2, c2 uint64) bool {
	return (f1^f2)&c1 == 0 && c1&^c2 == 0
}

// SigMatchTSM reports whether the signatures leave a TSM match of
// [f1, c1] against [f2, c2] possible. False is a proof of mismatch; true
// is inconclusive and must be confirmed with Manager.MatchTSM.
func SigMatchTSM(f1, c1, f2, c2 uint64) bool {
	return (f1^f2)&c1&c2 == 0
}
