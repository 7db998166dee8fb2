package serve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"bddmin/internal/problem"
)

// cacheMetrics fetches the /metrics cache section.
func cacheMetrics(t *testing.T, c *Client) CacheSnapshot {
	t.Helper()
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return snap.Cache
}

// TestRequestCacheHit: the second identical request is served from the
// front-line cache without touching the queue; a different heuristic is a
// different key and runs fresh.
func TestRequestCacheHit(t *testing.T) {
	s, c := newTestServer(t, Config{Shards: 1, CacheEntries: 16})
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	req := RequestFor(p, "osm_bt")

	first := mustMinimize(t, c, req)
	if first.Cached {
		t.Fatalf("first request marked cached: %+v", first)
	}
	second := mustMinimize(t, c, req)
	if !second.Cached {
		t.Fatalf("second identical request not served from cache: %+v", second)
	}
	if second.Shard != -1 {
		t.Fatalf("front-line hit reports shard %d, want -1", second.Shard)
	}
	if second.Cover != first.Cover || second.CoverSize != first.CoverSize {
		t.Fatalf("cached response differs from original")
	}
	if err := VerifyResponse(p, second); err != nil {
		t.Fatal(err)
	}
	// A different heuristic must not share the entry.
	other := mustMinimize(t, c, RequestFor(p, "tsm_cp"))
	if other.Cached {
		t.Fatalf("different heuristic served from cache")
	}
	cs := cacheMetrics(t, c)
	if cs.ReqHits != 1 || !cs.Enabled {
		t.Fatalf("cache counters: %+v", cs)
	}
	if got := s.counters.accepted.Load(); got != 2 {
		t.Fatalf("accepted = %d, want 2 (the hit never entered the queue)", got)
	}
}

// TestLeaderFailurePropagates: a job that panics on its shard (injected
// through the start hook) answers 500, and the failed run leaves nothing
// in the cache for a later request to hit.
func TestLeaderFailurePropagates(t *testing.T) {
	s, c := newTestServer(t, Config{
		Shards: 1, CacheEntries: 16,
		hookStart: func(shard int, id uint64) { panic("injected shard fault") },
	})
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	_, status, _, err := c.Minimize(context.Background(), RequestFor(p, "osm_bt"))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500", status)
	}
	cs := cacheMetrics(t, c)
	if cs.Inserts != 0 || cs.Entries != 0 || cs.ReqHits != 0 {
		t.Fatalf("failed run leaked into the cache: %+v", cs)
	}
	if got := s.counters.failed.Load(); got != 1 {
		t.Fatalf("failed = %d, want 1", got)
	}
}

// TestDegradedNeverCached: a budget-tripped (degraded) result is never
// stored, an identical budgeted request re-runs, and an unbudgeted request
// gets a fresh complete run whose result then serves both budgeted and
// unbudgeted callers at admission: budget limits are not part of the key.
func TestDegradedNeverCached(t *testing.T) {
	s, c := newTestServer(t, Config{
		Shards: 1, MaxVars: 16, CacheEntries: 16,
		// Sleep every job past the 1ms deadline so budgeted requests
		// always degrade (the anytime path clamps to a valid cover).
		hookStart: func(shard int, id uint64) { time.Sleep(10 * time.Millisecond) },
	})
	p := mustProblem(t, problem.KindSpec, randSpec(12, 42), 0, "")
	budgeted := RequestFor(p, "osm_bt")
	budgeted.TimeoutMs = 1
	unbudgeted := RequestFor(p, "osm_bt")

	first := mustMinimize(t, c, budgeted)
	if !first.Degraded || first.Cached {
		t.Fatalf("budgeted request: degraded=%v cached=%v, want degraded fresh run", first.Degraded, first.Cached)
	}
	// Identical budgeted request: the degraded result was not stored, so
	// this re-runs (and degrades again) instead of hitting.
	second := mustMinimize(t, c, budgeted)
	if second.Cached || !second.Degraded {
		t.Fatalf("degraded result was replayed: %+v", second)
	}
	// Unbudgeted request: same key, still empty — a fresh, complete
	// minimization that does get cached.
	third := mustMinimize(t, c, unbudgeted)
	if third.Cached || third.Degraded {
		t.Fatalf("unbudgeted request: cached=%v degraded=%v, want fresh complete run", third.Cached, third.Degraded)
	}
	fourth := mustMinimize(t, c, unbudgeted)
	if !fourth.Cached || fourth.Degraded {
		t.Fatalf("complete result not served from cache: %+v", fourth)
	}
	// A budgeted request now hits at admission: complete results are
	// correct under any budget (the converse is what is forbidden).
	fifth := mustMinimize(t, c, budgeted)
	if !fifth.Cached || fifth.Degraded || fifth.Shard != -1 {
		t.Fatalf("budgeted request after complete run: %+v", fifth)
	}
	if err := VerifyResponse(p, fifth); err != nil {
		t.Fatal(err)
	}
	cs := cacheMetrics(t, c)
	if cs.ReqHits != 2 {
		t.Fatalf("cache counters: %+v", cs)
	}
	if got := s.counters.accepted.Load(); got != 3 {
		t.Fatalf("accepted = %d, want 3 (both hits skipped the queue)", got)
	}
	if got := s.counters.degraded.Load(); got != 2 {
		t.Fatalf("degraded = %d, want 2", got)
	}
}

// TestCacheLRUEviction exercises the byte budget end to end: a cache too
// small for the working set keeps evicting, /metrics stays consistent
// (inserts − evictions = entries, bytes within budget), and recency
// ordering decides the victim.
func TestCacheLRUEviction(t *testing.T) {
	_, c := newTestServer(t, Config{
		Shards: 1, CacheEntries: 64, CacheBytes: 700,
	})
	// Each instance stores one entry of ~entryOverhead + key + cover, so
	// ~700 bytes holds about two of them; cycling three distinct instances
	// evicts.
	specs := []string{"d1 01 1d 01", "11 dd 00 d0", "0d d1 d1 0d"}
	var probs []*problem.Problem
	for _, sp := range specs {
		probs = append(probs, mustProblem(t, problem.KindSpec, sp, 0, ""))
	}
	for round := 0; round < 3; round++ {
		for _, p := range probs {
			mustMinimize(t, c, RequestFor(p, "osm_bt"))
		}
	}
	cs := cacheMetrics(t, c)
	if cs.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", cs.MaxBytes, cs)
	}
	if cs.Bytes > cs.MaxBytes {
		t.Fatalf("cache bytes %d exceed budget %d", cs.Bytes, cs.MaxBytes)
	}
	if int64(cs.Inserts)-int64(cs.Evictions) != int64(cs.Entries) {
		t.Fatalf("counter inconsistency: inserts %d - evictions %d != entries %d", cs.Inserts, cs.Evictions, cs.Entries)
	}
}

// TestResultCacheLRUOrder unit-tests the recency policy: touching an entry
// saves it from eviction; the cold entry goes first.
func TestResultCacheLRUOrder(t *testing.T) {
	rc := newResultCache(2, 1<<20)
	mk := func(cover string) *MinimizeResponse { return &MinimizeResponse{Cover: cover} }
	rc.put("a", mk("A"))
	rc.put("b", mk("B"))
	if rc.get("a") == nil { // promote a; b is now coldest
		t.Fatal("a missing")
	}
	rc.put("c", mk("C")) // evicts b
	if rc.get("b") != nil {
		t.Fatal("b should have been evicted (coldest)")
	}
	if rc.get("a") == nil || rc.get("c") == nil {
		t.Fatal("a and c should survive")
	}
	if got := rc.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// Replacement under the same key keeps one entry and frees the old
	// entry's bytes.
	before := rc.bytes
	rc.put("a", mk("A-longer-cover-text"))
	if rc.ll.Len() != 2 {
		t.Fatalf("replacement grew the cache to %d entries", rc.ll.Len())
	}
	if rc.bytes <= before {
		t.Fatalf("replacement did not reaccount bytes (%d -> %d)", before, rc.bytes)
	}
	if rc.get("a").Cover != "A-longer-cover-text" {
		t.Fatal("replacement did not take effect")
	}
}
