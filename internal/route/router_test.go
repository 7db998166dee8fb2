package route

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bddmin/internal/problem"
	"bddmin/internal/serve"
)

const testSpec = "d1 01 1d 01"

// stubBackend is a scriptable fleet member: healthz and minimize behavior
// flip atomically mid-test, standing in for drain and crash states
// without real minimization work.
type stubBackend struct {
	healthy  atomic.Bool // healthz: 200 vs 503 {"state":"draining"}
	draining atomic.Bool // minimize: 503 drain refusal
	ts       *httptest.Server
}

func newStub(t *testing.T) *stubBackend {
	t.Helper()
	st := &stubBackend{}
	st.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if st.healthy.Load() {
			writeJSON(w, http.StatusOK, serve.HealthResponse{State: "ok"})
		} else {
			writeJSON(w, http.StatusServiceUnavailable, serve.HealthResponse{State: "draining"})
		}
	})
	mux.HandleFunc("/minimize", func(w http.ResponseWriter, r *http.Request) {
		if st.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: "server is draining"})
			return
		}
		writeJSON(w, http.StatusOK, serve.MinimizeResponse{ID: 7, Format: "spec", Cover: "stub"})
	})
	st.ts = httptest.NewServer(mux)
	t.Cleanup(st.ts.Close)
	return st
}

// newRouter wires a Router (probers NOT started unless the test does)
// behind an httptest front and returns a client aimed at it.
func newRouter(t *testing.T, cfg Config) (*Router, *serve.Client, *httptest.Server) {
	t.Helper()
	rt := New(cfg)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		front.Close()
		rt.Close()
	})
	return rt, &serve.Client{Base: front.URL}, front
}

// newBackend starts a real bddmind with one shard and a small cache and
// returns its base URL.
func newBackend(t *testing.T) string {
	t.Helper()
	s := serve.New(serve.Config{Shards: 1, CacheEntries: 64})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		ts.Close()
	})
	return ts.URL
}

// majodc is examples/corpus/majodc.blif.
const majodc = ".model majodc\n.inputs a b c d\n.outputs y\n.names a b t1\n11 1\n.names c d t2\n11 1\n.names t1 t2 y\n1- 1\n-1 1\n.end\n"

func mustSpec(t *testing.T, spec string) *problem.Problem {
	t.Helper()
	p, err := problem.FromSpec(spec)
	if err != nil {
		t.Fatalf("FromSpec(%q): %v", spec, err)
	}
	return p
}

func backendRow(ms MetricsSnapshot, addr string) BackendSnapshot {
	for _, b := range ms.Backends {
		if b.Backend == addr {
			return b
		}
	}
	return BackendSnapshot{}
}

// TestRouterPlacementCacheLocality: through the router, a repeated
// instance — in any spelling — lands on the same backend and is answered
// from that backend's cache on the second hit. This is the property the
// whole design exists for.
func TestRouterPlacementCacheLocality(t *testing.T) {
	urls := []string{newBackend(t), newBackend(t)}
	_, client, _ := newRouter(t, Config{Backends: urls})

	var reqs []serve.MinimizeRequest
	for _, spec := range []string{testSpec, "01 11 0d 10", "10 d0 11 01", "0d 10 01 11"} {
		reqs = append(reqs, serve.RequestFor(mustSpec(t, spec), ""))
	}
	// A BLIF request naming its node is placed on its text key.
	reqs = append(reqs, serve.MinimizeRequest{Format: "blif", Input: majodc, Node: "t1"})
	for _, req := range reqs {
		first, status, eb, err := client.Minimize(context.Background(), req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("%q first: status %d, errBody %+v, err %v", req.Input, status, eb, err)
		}
		if first.Backend == "" {
			t.Fatalf("%q: routed response missing %s header", req.Input, BackendHeader)
		}
		if first.Cached {
			t.Fatalf("%q: first request claims a cache hit", req.Input)
		}
		second, status, _, err := client.Minimize(context.Background(), req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("%q second: status %d, err %v", req.Input, status, err)
		}
		if second.Backend != first.Backend {
			t.Fatalf("%q: repeat went to %s, first to %s — placement not sticky", req.Input, second.Backend, first.Backend)
		}
		if !second.Cached {
			t.Fatalf("%q: repeat not served from the backend cache", req.Input)
		}
	}
	// A cosmetic respelling is the same instance: same backend, still a
	// cache hit (placement is keyed on the canonical key, not on bytes).
	for _, req := range []serve.MinimizeRequest{
		serve.RequestFor(mustSpec(t, " D1  01 (1d 01) "), ""),
		{Format: "blif", Input: "# majority\n" + strings.ReplaceAll(majodc, " ", " \\\n  "), Node: "t1"},
	} {
		resp, status, _, err := client.Minimize(context.Background(), req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("respelled %q: status %d, err %v", req.Input, status, err)
		}
		if !resp.Cached {
			t.Fatalf("respelled %q missed the cache — placement is spelling-sensitive", req.Input)
		}
	}
}

// TestRouter429PassThrough: backpressure is an answer. The router must
// hand a backend's 429 to the client with Retry-After intact and must not
// fail over — the client owns the overload retry.
func TestRouter429PassThrough(t *testing.T) {
	overloaded := func() string {
		mux := http.NewServeMux()
		mux.HandleFunc("/minimize", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, serve.ErrorResponse{Error: "queue full", RetryAfterMs: 250})
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	rt, _, front := newRouter(t, Config{Backends: []string{overloaded(), overloaded()}})

	body, _ := json.Marshal(serve.RequestFor(mustSpec(t, testSpec), ""))
	res, err := http.Post(front.URL+"/minimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", res.StatusCode)
	}
	if got := res.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q did not survive the proxy", got)
	}
	var eb serve.ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&eb); err != nil || eb.RetryAfterMs != 250 {
		t.Fatalf("error body %+v (err %v), want retry_after_ms 250", eb, err)
	}
	ms := rt.Metrics()
	if ms.Counters.Failovers != 0 {
		t.Fatalf("429 triggered %d failovers, want 0", ms.Counters.Failovers)
	}
	if ms.Counters.Forwarded != 1 {
		t.Fatalf("forwarded = %d, want exactly 1 (429 is an answer, not a retry)", ms.Counters.Forwarded)
	}
	var total429 uint64
	for _, row := range ms.Backends {
		total429 += row.Rejected429
	}
	if total429 != 1 {
		t.Fatalf("rejected_429 total = %d across %+v, want 1", total429, ms.Backends)
	}
}

// TestRouterDrainFailover: a 503 drain refusal from the owner moves the
// request to its ring successor and the client sees only the success.
func TestRouterDrainFailover(t *testing.T) {
	a, b := newStub(t), newStub(t)
	urls := []string{a.ts.URL, b.ts.URL}
	rt, client, _ := newRouter(t, Config{Backends: urls, RetryBackoff: time.Millisecond})

	p := mustSpec(t, testSpec)
	owner := rt.ring.Owner(problem.KeyHash(p.CanonicalKey()))
	stubs := []*stubBackend{a, b}
	stubs[owner].draining.Store(true)

	resp, status, _, err := client.Minimize(context.Background(), serve.RequestFor(p, ""))
	if err != nil || status != http.StatusOK {
		t.Fatalf("status %d, err %v — drain refusal was not failed over", status, err)
	}
	if resp.Backend != urls[1-owner] {
		t.Fatalf("answered by %s, want the ring successor %s", resp.Backend, urls[1-owner])
	}
	ms := rt.Metrics()
	if row := backendRow(ms, urls[owner]); row.Drain503 != 1 {
		t.Fatalf("owner drain_503 = %d, want 1", row.Drain503)
	}
	if ms.Counters.Failovers != 1 || ms.Counters.Forwarded != 1 {
		t.Fatalf("counters %+v, want 1 failover and 1 forwarded", ms.Counters)
	}
	found := false
	for _, rb := range ms.Retries {
		if rb.Attempts == 2 && rb.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("retry histogram %+v missing the 2-attempt resolution", ms.Retries)
	}
}

// TestRouterAllDraining: when every backend refuses with 503, the client
// gets the honest 503 back (not an invented 502), and the request counts
// as exhausted.
func TestRouterAllDraining(t *testing.T) {
	a, b := newStub(t), newStub(t)
	a.draining.Store(true)
	b.draining.Store(true)
	rt, client, _ := newRouter(t, Config{Backends: []string{a.ts.URL, b.ts.URL}, RetryBackoff: time.Millisecond})

	_, status, eb, err := client.Minimize(context.Background(), serve.RequestFor(mustSpec(t, testSpec), ""))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the replayed 503", status)
	}
	if eb == nil || eb.Error != "server is draining" {
		t.Fatalf("error body %+v, want the backend's own drain refusal", eb)
	}
	if ms := rt.Metrics(); ms.Counters.Exhausted != 1 {
		t.Fatalf("exhausted = %d, want 1", ms.Counters.Exhausted)
	}
}

// TestRouterAllDead: with no backend reachable the router answers an
// honest 502 naming the last failure.
func TestRouterAllDead(t *testing.T) {
	dead := func() string {
		ts := httptest.NewServer(http.NotFoundHandler())
		url := ts.URL
		ts.Close()
		return url
	}
	rt, client, _ := newRouter(t, Config{Backends: []string{dead(), dead()}, RetryBackoff: time.Millisecond})

	_, status, eb, err := client.Minimize(context.Background(), serve.RequestFor(mustSpec(t, testSpec), ""))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", status)
	}
	if eb == nil || eb.Error == "" {
		t.Fatalf("502 carried no error body")
	}
	ms := rt.Metrics()
	if ms.Counters.Exhausted != 1 {
		t.Fatalf("exhausted = %d, want 1", ms.Counters.Exhausted)
	}
	for _, row := range ms.Backends {
		if row.Errors == 0 {
			t.Fatalf("backend %s shows no transport errors: %+v", row.Backend, row)
		}
	}
}

// TestRouterBadRequest: malformed work the router can see without
// building a netlist is rejected there without burning a forward. A BLIF
// request naming its node is placed on its text, so a netlist that does
// not build is forwarded once and the backend's own 400 comes back.
func TestRouterBadRequest(t *testing.T) {
	backend := newBackend(t)
	rt, _, front := newRouter(t, Config{Backends: []string{backend}})
	post := func(base, body string) (int, string) {
		t.Helper()
		res, err := http.Post(base+"/minimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		data, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, string(data)
	}

	if res, err := http.Get(front.URL + "/minimize"); err != nil {
		t.Fatal(err)
	} else {
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /minimize: %d, want 405", res.StatusCode)
		}
	}
	for _, body := range []string{"{not json", `{"format":"spec","input":"zz zz"}`} {
		if status, _ := post(front.URL, body); status != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, status)
		}
	}
	if row := backendRow(rt.Metrics(), backend); row.Requests != 0 {
		t.Fatalf("bad requests were forwarded: %+v", row)
	}

	netlist := `{"format":"blif","input":".model m\n.subckt x\n.end\n","node":"f"}`
	status, routed := post(front.URL, netlist)
	if status != http.StatusBadRequest {
		t.Fatalf("malformed netlist: status %d (%s), want 400", status, routed)
	}
	if _, direct := post(backend, netlist); routed != direct {
		t.Fatalf("routed 400 body %q, backend's own %q", routed, direct)
	}
	ms := rt.Metrics()
	if ms.Counters.BadRequest != 3 {
		t.Fatalf("bad_request = %d, want 3 (the router's own rejections)", ms.Counters.BadRequest)
	}
	if row := backendRow(ms, backend); row.Requests != 1 {
		t.Fatalf("malformed netlist forwarded %d times, want once: %+v", row.Requests, row)
	}
}

// TestRouterEjectionAndReadmission: the prober ejects a backend after
// two failed probes, the router keeps serving through it as a last
// resort, and two clean probes re-admit it — all visible in /metrics and
// /healthz.
func TestRouterEjectionAndReadmission(t *testing.T) {
	st := newStub(t)
	rt, client, front := newRouter(t, Config{
		Backends:      []string{st.ts.URL},
		ProbeInterval: 10 * time.Millisecond,
	})
	rt.Start()

	waitFor := func(what string, cond func(MetricsSnapshot) bool) MetricsSnapshot {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			ms := rt.Metrics()
			if cond(ms) {
				return ms
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; metrics %+v", what, ms)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	st.healthy.Store(false)
	ms := waitFor("ejection", func(ms MetricsSnapshot) bool { return ms.Healthy == 0 })
	if row := backendRow(ms, st.ts.URL); row.Ejections != 1 || row.ProbeFails < 2 {
		t.Fatalf("ejected backend row %+v, want 1 ejection after >=2 probe failures", row)
	}
	// The router's own healthz degrades with the fleet...
	res, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb HealthResponse
	_ = json.NewDecoder(res.Body).Decode(&hb)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || hb.State != "unavailable" {
		t.Fatalf("router healthz with empty fleet: %d %+v, want 503 unavailable", res.StatusCode, hb)
	}
	// ...but an ejected backend is still tried as a last resort rather
	// than refusing the client outright.
	if _, status, _, err := client.Minimize(context.Background(), serve.RequestFor(mustSpec(t, testSpec), "")); err != nil || status != http.StatusOK {
		t.Fatalf("request during ejection: status %d, err %v — last-resort forwarding broken", status, err)
	}

	st.healthy.Store(true)
	ms = waitFor("re-admission", func(ms MetricsSnapshot) bool { return ms.Healthy == 1 })
	if row := backendRow(ms, st.ts.URL); row.Readmissions != 1 {
		t.Fatalf("row after recovery %+v, want 1 readmission", row)
	}
}

// liveBackend is a real bddmind (serve.Server) on a real TCP listener —
// the kill test needs an address it can destroy and later rebind.
type liveBackend struct {
	url  string
	addr string // host:port, stable across restart
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
}

func startLive(t *testing.T, addr string) *liveBackend {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var lis net.Listener
	var err error
	// Rebinding a just-closed port can transiently fail; retry briefly.
	for deadline := time.Now().Add(5 * time.Second); ; {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s := serve.New(serve.Config{Shards: 2, QueueDepth: 64})
	s.Start()
	b := &liveBackend{
		url:  "http://" + lis.Addr().String(),
		addr: lis.Addr().String(),
		srv:  s,
		hs:   &http.Server{Handler: s.Handler()},
		done: make(chan struct{}),
	}
	go func() {
		_ = b.hs.Serve(lis)
		close(b.done)
	}()
	return b
}

// kill closes the listener and every active connection, then waits for
// the accept loop to exit — the closest in-process stand-in for SIGKILL.
func (b *liveBackend) kill(t *testing.T) {
	t.Helper()
	_ = b.hs.Close()
	select {
	case <-b.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("backend %s did not stop", b.addr)
	}
}

func (b *liveBackend) drainAndStop(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Drain(ctx)
	_ = b.hs.Close()
}

// TestRouterFailoverUnderKill is the acceptance test for the multi-node
// design: three real backends under closed-loop verified load through the
// router; one backend is killed mid-load and later restarted on the same
// address. Required outcome: no accepted request is silently lost (every
// issued request is either a verified cover or an honestly reported
// failure), zero verification failures, and the ejection and re-admission
// both observable in the router's metrics.
func TestRouterFailoverUnderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet test")
	}
	fleet := []*liveBackend{startLive(t, ""), startLive(t, ""), startLive(t, "")}
	urls := []string{fleet[0].url, fleet[1].url, fleet[2].url}
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 32}}
	rt := New(Config{
		Backends:      urls,
		ProbeInterval: 15 * time.Millisecond,
		RetryBackoff:  2 * time.Millisecond,
		HTTP:          httpc,
	})
	rt.Start()
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Eight distinct 3-var instances; the victim backend is whichever owns
	// the first one, so the kill is guaranteed to hit routed traffic.
	specs := []string{
		testSpec, "01 11 0d 10", "10 d0 11 01", "11 00 1d d1",
		"0d 10 01 11", "1d d1 10 00", "d0 11 01 1d", "00 1d 11 d0",
	}
	probs := make([]*problem.Problem, len(specs))
	for i, sp := range specs {
		probs[i] = mustSpec(t, sp)
	}
	victim := rt.ring.Owner(problem.KeyHash(probs[0].CanonicalKey()))

	const target = 1200
	client := &serve.Client{Base: front.URL, HTTP: httpc}
	type loadResult struct {
		stats *serve.LoadStats
		err   error
	}
	loadDone := make(chan loadResult, 1)
	go func() {
		stats, err := serve.RunLoad(context.Background(), serve.LoadConfig{
			Client:      client,
			Problems:    serve.Refs(probs, ""),
			Requests:    target,
			Concurrency: 8,
			Verify:      true,
		})
		loadDone <- loadResult{stats, err}
	}()

	waitFor := func(what string, cond func(MetricsSnapshot) bool) MetricsSnapshot {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			ms := rt.Metrics()
			if cond(ms) {
				return ms
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; metrics %+v", what, ms)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Let the load establish itself, then kill the victim cold.
	waitFor("load warm-up", func(ms MetricsSnapshot) bool { return ms.Counters.Forwarded >= 200 })
	fleet[victim].kill(t)
	ms := waitFor("ejection of the killed backend", func(ms MetricsSnapshot) bool {
		return backendRow(ms, urls[victim]).Ejections >= 1
	})
	if row := backendRow(ms, urls[victim]); row.Healthy {
		t.Fatalf("killed backend still marked healthy: %+v", row)
	}

	// Bring a fresh backend up on the same address and wait for the
	// prober to re-admit it.
	revived := startLive(t, fleet[victim].addr)
	waitFor("re-admission of the revived backend", func(ms MetricsSnapshot) bool {
		return backendRow(ms, urls[victim]).Readmissions >= 1
	})

	res := <-loadDone
	if res.err != nil {
		t.Fatalf("load: %v", res.err)
	}
	stats := res.stats
	final := rt.Metrics()
	t.Logf("load: %d ok, %d errors, %d failovers, victim row %+v",
		stats.Requests, stats.ErrorCount, final.Counters.Failovers, backendRow(final, urls[victim]))

	// The accounting identity: every issued request is either a completed
	// (client-verified) response or an honestly surfaced failure.
	if got := stats.Requests + stats.ErrorCount; got != target {
		t.Fatalf("%d completed + %d errors = %d, issued %d — requests were silently lost",
			stats.Requests, stats.ErrorCount, got, target)
	}
	if len(stats.VerifyFails) > 0 {
		t.Fatalf("%d covers failed client-side verification: %v", len(stats.VerifyFails), stats.VerifyFails[0])
	}
	// Failover must have absorbed the kill: the vast majority of requests
	// succeed even though a third of the fleet died mid-run.
	if stats.ErrorCount*20 > target {
		t.Fatalf("%d of %d requests failed — failover did not absorb the kill", stats.ErrorCount, target)
	}
	if final.Counters.Failovers == 0 {
		t.Fatalf("no failovers recorded despite killing the owner of a live instance")
	}
	row := backendRow(final, urls[victim])
	if row.Ejections < 1 || row.Readmissions < 1 {
		t.Fatalf("victim row %+v, want both an ejection and a re-admission", row)
	}

	// The revived backend serves again: the victim's keys return home.
	resp, status, eb, err := client.Minimize(context.Background(), serve.RequestFor(probs[0], ""))
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-recovery request: status %d, errBody %+v, err %v", status, eb, err)
	}
	if resp.Backend != urls[victim] {
		t.Fatalf("post-recovery placement %s, want the revived owner %s", resp.Backend, urls[victim])
	}

	revived.drainAndStop(t)
	for i, b := range fleet {
		if i != victim {
			b.drainAndStop(t)
		}
	}
}
