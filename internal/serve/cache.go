package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Result memoization.
//
// The minimization heuristics are deterministic functions of the instance
// [f, c] and the heuristic, so a complete cover is stored once under that
// identity — the heuristic name and problem.CanonicalKey — and replayed at
// admission to every later request for the instance, without a queue slot
// or a shard. The key carries no budget limits: core.MinimizeAnytime runs
// the same steps with or without a budget, so a complete cover is the
// answer any budget would get had it held. The converse does not hold: a
// degraded (budget-tripped) cover is valid but budget-shaped, and serving
// it to a later caller would silently downgrade the answer, so only
// complete results are stored and degraded requests always re-run.
// Concurrent identical misses each run, and each stores the same complete
// result; later requests hit it.
//
// The store is a byte-budgeted LRU. Stored responses hold only
// manager-independent data (the canonical serialized cover, sizes, the
// optional spec echo), so a hit is correct whichever shard produced it
// and re-verifiable client-side.

// entryOverhead approximates the per-entry bookkeeping cost (list element,
// map slot, response struct) charged against the byte budget on top of the
// stored strings.
const entryOverhead = 256

// cacheEntry is one stored result; resp is a sanitized template that is
// copied, never served directly.
type cacheEntry struct {
	key  string
	resp *MinimizeResponse
	size int64
}

// resultCache is the bounded LRU of complete results. The zero limits are
// not valid — use newResultCache, which normalizes them.
type resultCache struct {
	maxEntries int
	maxBytes   int64

	mu    sync.Mutex
	bytes int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	reqHits   atomic.Uint64 // hits served at admission
	misses    atomic.Uint64 // lookups that found nothing
	inserts   atomic.Uint64
	evictions atomic.Uint64
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// get returns the stored template for key and promotes it, or nil on a
// miss. Callers must copy the result before mutating it (cachedResponse).
func (c *resultCache) get(key string) *MinimizeResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp
}

// put stores a sanitized copy of resp under key, replacing any previous
// entry, then evicts from the cold end until both budgets hold. Callers
// are responsible for never passing degraded responses.
func (c *resultCache) put(key string, resp *MinimizeResponse) {
	entry := &cacheEntry{
		key:  key,
		resp: sanitize(resp),
		size: int64(len(key)+len(resp.Cover)+len(resp.Spec)) + entryOverhead,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.bytes -= el.Value.(*cacheEntry).size
		c.ll.Remove(el)
		delete(c.items, key)
	}
	c.items[key] = c.ll.PushFront(entry)
	c.bytes += entry.size
	c.inserts.Add(1)
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, ev.key)
		c.bytes -= ev.size
		c.evictions.Add(1)
	}
}

// sanitize strips the per-request fields from a response so the remainder
// is a reusable template: ID, shard, timings and trace belong to the
// execution that produced it, not to the instance's result.
func sanitize(resp *MinimizeResponse) *MinimizeResponse {
	cp := *resp
	cp.ID = 0
	cp.Shard = -1
	cp.QueueNs = 0
	cp.RunNs = 0
	cp.Trace = nil
	cp.Cached = false
	return &cp
}

// cachedResponse instantiates a stored template for one request.
func cachedResponse(stored *MinimizeResponse, id uint64) *MinimizeResponse {
	cp := *stored
	cp.ID = id
	cp.Cached = true
	return &cp
}

// cacheSnapshot renders the cache section of GET /metrics.
func (s *Server) cacheSnapshot() CacheSnapshot {
	c := s.cache
	if c == nil {
		return CacheSnapshot{}
	}
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return CacheSnapshot{
		Enabled:    true,
		Entries:    entries,
		Bytes:      bytes,
		MaxEntries: c.maxEntries,
		MaxBytes:   c.maxBytes,
		ReqHits:    c.reqHits.Load(),
		Misses:     c.misses.Load(),
		Inserts:    c.inserts.Load(),
		Evictions:  c.evictions.Load(),
	}
}
