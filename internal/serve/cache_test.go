package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
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
	if first.Cached || first.Coalesced {
		t.Fatalf("first request marked cached/coalesced: %+v", first)
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

// TestSemanticCacheHit: two row-level encodings of the same cube cover
// have different request keys (the normalizer cannot prove 1-1 ≡
// {101, 111}) but build the same [f, c], so the second converges on the
// content-addressed tier and never re-minimizes.
func TestSemanticCacheHit(t *testing.T) {
	s, c := newTestServer(t, Config{Shards: 1, CacheEntries: 16})
	plaA := ".i 3\n.o 1\n1-1 1\n"
	plaB := ".i 3\n.o 1\n101 1\n111 1\n"
	pa := mustProblem(t, problem.KindPLA, plaA, 0, "")
	pb := mustProblem(t, problem.KindPLA, plaB, 0, "")
	if pa.CanonicalKey() == pb.CanonicalKey() {
		t.Fatalf("test premise broken: spellings share a request key")
	}

	ra := mustMinimize(t, c, RequestFor(pa, "osm_bt"))
	rb := mustMinimize(t, c, RequestFor(pb, "osm_bt"))
	if ra.Cached {
		t.Fatalf("first spelling served from cache")
	}
	if !rb.Cached {
		t.Fatalf("semantically identical spelling missed the cache: %+v", rb)
	}
	if rb.Shard == -1 {
		t.Fatalf("semantic hits run through a shard (Build happens there)")
	}
	if rb.Cover != ra.Cover || rb.CoverSize != ra.CoverSize {
		t.Fatalf("semantic hit returned a different cover")
	}
	for _, pair := range []struct {
		p *problem.Problem
		r *MinimizeResponse
	}{{pa, ra}, {pb, rb}} {
		if err := VerifyResponse(pair.p, pair.r); err != nil {
			t.Fatal(err)
		}
	}
	cs := cacheMetrics(t, c)
	if cs.SemHits != 1 || cs.ReqHits != 0 {
		t.Fatalf("cache counters: %+v", cs)
	}
	// Both requests were admitted (the semantic tier sits behind the
	// queue), but only one minimization ran; the hit is still "finished".
	if got := s.counters.accepted.Load(); got != 2 {
		t.Fatalf("accepted = %d, want 2", got)
	}
}

// waitCoalesced polls until n followers have joined flights.
func waitCoalesced(t *testing.T, s *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.cache.coalesced.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced count never reached %d (at %d)", n, s.cache.coalesced.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightCoalescing is the -race proof of the coalescing path: N
// concurrent identical requests execute exactly once on the shard; the
// leader's response fans out to every follower with a verified cover.
func TestSingleflightCoalescing(t *testing.T) {
	const followers = 7
	gate := newHookGate()
	s, c := newTestServer(t, Config{
		Shards: 1, CacheEntries: 16, hookStart: gate.hook,
	})
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	req := RequestFor(p, "osm_bt")

	var wg sync.WaitGroup
	results := make([]*MinimizeResponse, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = mustMinimize(t, c, req)
		}(i)
		if i == 0 {
			<-gate.entered // leader is executing, held on the shard
		}
	}
	// All followers must join the leader's flight before it completes —
	// that is what makes the execute-once assertion deterministic.
	waitCoalesced(t, s, followers)
	close(gate.release)
	wg.Wait()

	coalesced := 0
	for i, resp := range results {
		if resp == nil {
			t.Fatalf("request %d got no response", i)
		}
		if err := VerifyResponse(p, resp); err != nil {
			t.Fatal(err)
		}
		if resp.Coalesced {
			coalesced++
		}
	}
	if coalesced != followers {
		t.Fatalf("%d coalesced responses, want %d", coalesced, followers)
	}
	if got := s.counters.accepted.Load(); got != 1 {
		t.Fatalf("accepted = %d, want 1 (followers never enqueue)", got)
	}
	if got := s.counters.finished.Load(); got != 1 {
		t.Fatalf("finished = %d, want 1 (one execution)", got)
	}
	var jobs uint64
	for _, w := range s.workers {
		jobs += w.jobs.Load()
	}
	if jobs != 1 {
		t.Fatalf("shards executed %d jobs, want exactly 1", jobs)
	}
}

// TestLeaderFailurePropagates: a leader that panics mid-job (injected
// through the start hook) answers 500, every waiting follower mirrors the
// error, and nothing reaches the cache.
func TestLeaderFailurePropagates(t *testing.T) {
	const followers = 3
	gate := newHookGate()
	s, c := newTestServer(t, Config{
		Shards: 1, CacheEntries: 16,
		hookStart: func(shard int, id uint64) {
			gate.hook(shard, id)
			panic("injected shard fault")
		},
	})
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	req := RequestFor(p, "osm_bt")

	var wg sync.WaitGroup
	statuses := make([]int, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, status, _, err := c.Minimize(context.Background(), req)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			statuses[i] = status
		}(i)
		if i == 0 {
			<-gate.entered
		}
	}
	waitCoalesced(t, s, followers)
	close(gate.release) // the leader now panics inside runJob
	wg.Wait()

	for i, status := range statuses {
		if status != http.StatusInternalServerError {
			t.Fatalf("request %d: HTTP %d, want 500", i, status)
		}
	}
	cs := cacheMetrics(t, c)
	if cs.Inserts != 0 || cs.Entries != 0 || cs.ReqHits != 0 {
		t.Fatalf("failed run leaked into the cache: %+v", cs)
	}
	if got := s.counters.failed.Load(); got != 1 {
		t.Fatalf("failed = %d, want 1", got)
	}
}

// TestFollowersSurviveLeaderDisconnect: a leader whose client leaves
// while its job is queued gets its work skipped, and that outcome belongs
// to the leader's request alone. The followers coalesced onto it go back
// through admission, one of them leads a fresh run, and every follower
// gets a verified cover.
func TestFollowersSurviveLeaderDisconnect(t *testing.T) {
	const followers = 3
	gate := newHookGate()
	s := New(Config{Shards: 1, CacheEntries: 16, hookStart: gate.hook})
	s.Start()
	// The wrapper records each request's server-side context in arrival
	// order, so the test can wait until the server has seen the leader's
	// client leave.
	var (
		mu   sync.Mutex
		ctxs []context.Context
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ctxs = append(ctxs, r.Context())
		mu.Unlock()
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	c := &Client{Base: ts.URL, HTTP: ts.Client()}

	// A blocker job on another instance holds the single shard.
	// Clients on other goroutines report with t.Error, never t.Fatal.
	minimize := func(ctx context.Context, req MinimizeRequest) *MinimizeResponse {
		resp, status, errBody, err := c.Minimize(ctx, req)
		if ctx.Err() == nil && (err != nil || status != http.StatusOK) {
			t.Errorf("minimize: HTTP %d, %+v, %v", status, errBody, err)
		}
		return resp
	}
	blocker := mustProblem(t, problem.KindSpec, "d1 01 10 01", 0, "")
	done := make(chan struct{})
	go func() {
		defer close(done)
		minimize(context.Background(), RequestFor(blocker, "osm_bt"))
	}()
	<-gate.entered

	// The leader queues behind it with a cancellable client context.
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	req := RequestFor(p, "osm_bt")
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		minimize(leaderCtx, req)
	}()
	waitQueueLen(t, s, 1)

	var wg sync.WaitGroup
	results := make([]*MinimizeResponse, followers)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = minimize(context.Background(), req)
		}(i)
	}
	waitCoalesced(t, s, followers)

	cancelLeader()
	<-leaderDone
	mu.Lock()
	serverSide := ctxs[1]
	mu.Unlock()
	select {
	case <-serverSide.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the server never saw the leader's client leave")
	}
	close(gate.release)
	wg.Wait()
	<-done

	for i, resp := range results {
		if resp == nil {
			t.Fatalf("follower %d got no response", i)
		}
		if err := VerifyResponse(p, resp); err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
	}
}

// TestDegradedNeverCached: a budget-tripped (degraded) result is never
// stored, an identical budgeted request re-runs, and an unbudgeted request
// gets a fresh complete run whose result then serves both budgeted and
// unbudgeted callers.
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
	// Unbudgeted request: different request key, empty semantic tier —
	// a fresh, complete minimization that does get cached.
	third := mustMinimize(t, c, unbudgeted)
	if third.Cached || third.Degraded {
		t.Fatalf("unbudgeted request: cached=%v degraded=%v, want fresh complete run", third.Cached, third.Degraded)
	}
	fourth := mustMinimize(t, c, unbudgeted)
	if !fourth.Cached || fourth.Degraded {
		t.Fatalf("complete result not served from cache: %+v", fourth)
	}
	// A budgeted request may now hit the semantic tier: complete results
	// are correct under any budget (the converse is what is forbidden).
	fifth := mustMinimize(t, c, budgeted)
	if !fifth.Cached || fifth.Degraded {
		t.Fatalf("budgeted request after complete run: %+v", fifth)
	}
	if err := VerifyResponse(p, fifth); err != nil {
		t.Fatal(err)
	}
	cs := cacheMetrics(t, c)
	if cs.ReqHits != 1 || cs.SemHits != 1 {
		t.Fatalf("cache counters: %+v", cs)
	}
	if got := s.counters.accepted.Load(); got != 4 {
		t.Fatalf("accepted = %d, want 4 (only the front-line hit skipped the queue)", got)
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
		Shards: 1, CacheEntries: 64, CacheBytes: 1400,
	})
	// Each entry costs ~entryOverhead + key + cover, so ~1400 bytes holds
	// about two spec entries; cycling three distinct instances evicts.
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
