package route

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Consistent-hash ring with virtual nodes.
//
// Placement must satisfy three properties the router's correctness and
// the fleet's cache locality depend on:
//
//   - determinism: the same members in any order, in any process, at any
//     time, produce the same ring, so identical instances land on the
//     same backend across router restarts (FNV-1a, no seeds, no maps);
//   - balance: many points per member smooth the arc lengths, so
//     no backend owns a grossly outsized key range;
//   - minimal movement: adding or removing a member moves only the keys
//     whose successor changed — on average 1/N of them — so a membership
//     change invalidates one backend's worth of cache locality, not all.
//
// The ring is immutable once built. Health is deliberately not part of
// it: the router keeps one ring over all *configured* backends and skips
// ejected members at lookup time (Order returns every member in successor
// order), so an ejection behaves exactly like a removal — the ejected
// node's keys fail over to their ring successors and everyone else's
// placement is untouched — and a re-admission restores the original
// placement bit for bit.

// VirtualNodes is the virtual-node count the router gives every backend
// alike. 128 points keep the max/mean arc ratio within ~1.3 for small
// fleets (see TestRingBalance).
const VirtualNodes = 128

// Ring is an immutable consistent-hash ring. Build with NewRing; all
// methods are safe for concurrent use.
type Ring struct {
	members []string
	points  []point // sorted by hash
}

// point is one virtual node: a position on the ring owned by a member.
type point struct {
	hash   uint64
	member int // index into members
}

// NewRing places vnodes virtual nodes per member. Member order does not
// affect placement: points are hashed from the member name and sorted by
// position.
func NewRing(members []string, vnodes int) *Ring {
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]point, 0, len(members)*vnodes),
	}
	for i, m := range r.members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: pointHash(m, v), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// A hash collision between members is broken by name, not by the
		// order members were listed in, to keep placement order-free.
		return r.members[pa.member] < r.members[pb.member]
	})
	return r
}

// pointHash positions virtual node v of member m: FNV-1a of "m#v" pushed
// through a splitmix64 finalizer. The finalizer matters: backend names in
// a fleet differ by a character or two ("...:8081" vs "...:8082"), and
// raw FNV-1a diffuses such near-identical inputs poorly, clustering the
// virtual nodes and skewing arc lengths badly (measured ~1.9x worst
// member at 128 vnodes without it, ~1.2x with it — see TestRingBalance).
func pointHash(m string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(m))
	h.Write([]byte("#"))
	h.Write([]byte(strconv.Itoa(v)))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a fixed bijective scrambler with
// full avalanche, deterministic across processes and releases.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// successorIndex finds the first point at or after key, wrapping.
func (r *Ring) successorIndex(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the index of the member owning key — the member of the
// first virtual node clockwise from the key's position. It returns -1 on
// an empty ring.
func (r *Ring) Owner(key uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	return r.points[r.successorIndex(key)].member
}

// Order returns every member index in successor order from the key's
// position: the owner first, then each distinct member as the walk
// first encounters it. This is the router's failover order — skipping an
// ejected owner and taking the next entry is exactly the placement the
// ring would produce had the owner been removed.
func (r *Ring) Order(key uint64) []int {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]int, 0, len(r.members))
	seen := make([]bool, len(r.members))
	start := r.successorIndex(key)
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}

// Share estimates each member's owned fraction of the key space from the
// arc lengths between consecutive virtual nodes — the ring-composition
// figure reported by GET /metrics.
func (r *Ring) Share() []float64 {
	shares := make([]float64, len(r.members))
	n := len(r.points)
	if n == 0 {
		return shares
	}
	const whole = float64(1<<63) * 2 // 2^64 as float64
	for i, p := range r.points {
		// The arc ending at point i (owned by its member) starts at the
		// previous point; the first arc wraps around from the last.
		prev := r.points[(i+n-1)%n].hash
		arc := p.hash - prev // wraps correctly in uint64 arithmetic
		shares[p.member] += float64(arc) / whole
	}
	return shares
}
