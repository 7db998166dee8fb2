package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bddmin/internal/obs"
	"bddmin/internal/problem"
)

// Shared tiny instances, one per input format. The PLA and BLIF sources
// mirror the loader tests: a 3-input/2-output espresso table and a mux
// netlist whose inner AND node has the observability don't-care ¬s.
const (
	testSpec = "d1 01 1d 01"

	testPLA = `.i 3
.o 2
.ilb a b c
.ob f g
.p 4
000 10
011 -1
1-0 01
111 1-
.e
`

	testBLIF = `.model mux
.inputs s a c
.outputs f
.names a c inner
11 1
.names s inner c f
11- 1
0-1 1
.end
`
)

// newTestServer boots a Server over httptest and returns a client aimed at
// it. Cleanup drains the pool before closing the listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

// mustMinimize submits one job and fails the test on any non-200 outcome.
func mustMinimize(t *testing.T, c *Client, req MinimizeRequest) *MinimizeResponse {
	t.Helper()
	resp, status, errBody, err := c.Minimize(context.Background(), req)
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("minimize: HTTP %d: %+v", status, errBody)
	}
	return resp
}

// mustProblem parses an instance or fails.
func mustProblem(t *testing.T, kind problem.Kind, input string, output int, node string) *problem.Problem {
	t.Helper()
	p, err := problem.Parse(kind, input, output, node)
	if err != nil {
		t.Fatalf("parse %s: %v", kind, err)
	}
	return p
}

func TestMinimizeSpec(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 1})
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	resp := mustMinimize(t, c, RequestFor(p, "osm_bt"))
	if resp.Format != "spec" || resp.Vars != 3 || resp.Heuristic != "osm_bt" {
		t.Fatalf("unexpected response header: %+v", resp)
	}
	if resp.CoverSize > resp.InputSize {
		t.Fatalf("cover (%d) larger than |f| (%d)", resp.CoverSize, resp.InputSize)
	}
	if resp.Spec == "" {
		t.Fatalf("3-var instance should echo its cover spec")
	}
	if err := VerifyResponse(p, resp); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizePLAAndBLIF(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 1})
	for _, tc := range []struct {
		name string
		req  MinimizeRequest
		prob *problem.Problem
	}{
		{"pla", MinimizeRequest{Format: "pla", Input: testPLA, Output: 1}, mustProblem(t, problem.KindPLA, testPLA, 1, "")},
		{"blif", MinimizeRequest{Format: "blif", Input: testBLIF}, mustProblem(t, problem.KindBLIF, testBLIF, 0, "")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := mustMinimize(t, c, tc.req)
			if resp.Format != tc.name {
				t.Fatalf("format = %q, want %q", resp.Format, tc.name)
			}
			if tc.name == "blif" && resp.Node == "" {
				t.Fatalf("BLIF response should name the resolved node")
			}
			if err := VerifyResponse(tc.prob, resp); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMinimizeTrivialInstance(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 1})
	// All leaves don't-care: the care set is empty, cover is a constant.
	p := mustProblem(t, problem.KindSpec, "dd dd", 0, "")
	resp := mustMinimize(t, c, RequestFor(p, "osm_bt"))
	if !resp.Trivial {
		t.Fatalf("expected trivial=true: %+v", resp)
	}
	if err := VerifyResponse(p, resp); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeResponseTrace(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 1})
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	req := RequestFor(p, "sched")
	req.Trace = true
	resp := mustMinimize(t, c, req)
	if len(resp.Trace) == 0 {
		t.Fatalf("trace=true returned no events")
	}
	// Each entry must be a standalone JSON object with an "ev" kind.
	for _, raw := range resp.Trace {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil || ev.Ev == "" {
			t.Fatalf("bad trace entry %s: %v", raw, err)
		}
	}
}

// TestDegradedOptLvKeepsCompletedLevels: every fresh request runs through
// core.Instrument, which must keep opt_lv's level-by-level rollback. A node
// budget that trips after the first levels must report the interrupted
// level as the abort phase — a whole-run fallback would report "opt_lv"
// and return f.
func TestDegradedOptLvKeepsCompletedLevels(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 1, MaxVars: 16})
	p := mustProblem(t, problem.KindSpec, randSpec(9, 7), 0, "")
	req := RequestFor(p, "opt_lv")
	req.BudgetNodes = 50
	resp := mustMinimize(t, c, req)
	if !resp.Degraded || !strings.HasPrefix(resp.AbortPhase, "level ") {
		t.Fatalf("degraded=%v abort_phase=%q, want an abort inside a level round", resp.Degraded, resp.AbortPhase)
	}
	if resp.AbortPhase == "level 0" {
		t.Fatalf("budget tripped in the first level; no completed level to keep")
	}
	if err := VerifyResponse(p, resp); err != nil {
		t.Fatal(err)
	}
}

// TestOldClientWorkersFieldIgnored: older clients may still send the
// removed per-request level-matching worker knob. The server ignores it
// like any unknown field and answers exactly as without it. The field name
// is spelled in pieces so a search for the removed knob finds no live Go
// reference.
func TestOldClientWorkersFieldIgnored(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 1})
	spec := randSpec(6, 3)
	post := func(extra string) *MinimizeResponse {
		t.Helper()
		body := `{"format":"spec","input":"` + spec + `","heuristic":"opt_lv"` + extra + `}`
		res, err := c.HTTP.Post(c.Base+"/minimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d for body %s", res.StatusCode, body)
		}
		var resp MinimizeResponse
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}
	plain := post("")
	old := post(`,"match` + `_workers":4`)
	if old.Cover != plain.Cover || old.CoverSize != plain.CoverSize || old.Spec != plain.Spec {
		t.Fatalf("old-client request returned cover of %d nodes, plain request %d nodes", old.CoverSize, plain.CoverSize)
	}
}

// jobEndpoint is one job route for the admission table, with request
// bodies by case name; "ok" is a valid job within MaxVars 3.
type jobEndpoint struct {
	path   string
	failed string // the 500 error body
	bodies map[string]string
}

func jobEndpoints(t *testing.T) []jobEndpoint {
	net := func(input, heuristic string) string {
		b, err := json.Marshal(NetworkRequest{Input: input, Heuristic: heuristic})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	wideNet := ".model w\n.inputs a b c d\n.outputs f\n.names a b c d f\n1111 1\n.end\n"
	huge := `{"input":"` + strings.Repeat("x", maxRequestBody) + `"}`
	return []jobEndpoint{
		{"/minimize", "minimization failed", map[string]string{
			"ok":             `{"format":"spec","input":"` + testSpec + `"}`,
			"body-too-large": huge,
			"bad-json":       "{not json",
			"bad-instance":   `{"format":"spec","input":"xx"}`,
			"bad-format":     `{"format":"vhdl","input":"01"}`,
			"bad-heuristic":  `{"format":"spec","input":"01 10","heuristic":"magic"}`,
			"too-large":      `{"format":"spec","input":"` + strings.Repeat("d", 16) + `"}`,
		}},
		{"/optimize-network", "network optimization failed", map[string]string{
			"ok":             net(testNetBLIF, ""),
			"body-too-large": huge,
			"bad-json":       "{not json",
			"bad-instance":   net("not blif", ""),
			"bad-heuristic":  net(testNetBLIF, "magic"),
			"too-large":      net(wideNet, ""),
		}},
	}
}

// postJob sends one body to a job endpoint.
func postJob(t *testing.T, c *Client, path, body string) (*http.Response, ErrorResponse) {
	t.Helper()
	res, err := c.HTTP.Post(c.Base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var eb ErrorResponse
	_ = json.NewDecoder(res.Body).Decode(&eb)
	return res, eb
}

// TestAdmissionErrors runs one admission table over both job endpoints,
// which share one admission and job path: each refusal, the 500 of a job
// that panics on its shard, and the skip of a job whose client left while
// it was queued must look the same on each.
func TestAdmissionErrors(t *testing.T) {
	cfg := Config{Shards: 1, MaxVars: 3}
	// A check gets the endpoint's body named like its case, if any.
	type check func(t *testing.T, ep jobEndpoint, body string)
	refused := func(status int) check {
		return func(t *testing.T, ep jobEndpoint, body string) {
			if body == "" {
				t.Skip("no such request on this endpoint")
			}
			s, c := newTestServer(t, cfg)
			res, eb := postJob(t, c, ep.path, body)
			if res.StatusCode != status || eb.Error == "" {
				t.Fatalf("HTTP %d %+v, want %d with an error body", res.StatusCode, eb, status)
			}
			if got := s.counters.invalid.Load(); got != 1 {
				t.Fatalf("invalid = %d, want 1", got)
			}
		}
	}
	cases := []struct {
		name  string
		check check
	}{
		{"method", func(t *testing.T, ep jobEndpoint, _ string) {
			_, c := newTestServer(t, cfg)
			res, err := c.HTTP.Get(c.Base + ep.path)
			if err != nil {
				t.Fatal(err)
			}
			res.Body.Close()
			if res.StatusCode != http.StatusMethodNotAllowed || res.Header.Get("Allow") != http.MethodPost {
				t.Fatalf("GET = %d (Allow %q), want 405 (Allow POST)", res.StatusCode, res.Header.Get("Allow"))
			}
		}},
		{"body-too-large", refused(http.StatusRequestEntityTooLarge)},
		{"bad-json", refused(http.StatusBadRequest)},
		{"bad-instance", refused(http.StatusBadRequest)},
		{"bad-format", refused(http.StatusBadRequest)},
		{"bad-heuristic", refused(http.StatusBadRequest)},
		{"too-large", refused(http.StatusRequestEntityTooLarge)},
		{"queue-full", func(t *testing.T, ep jobEndpoint, _ string) {
			gate := newHookGate()
			qcfg := cfg
			qcfg.QueueDepth, qcfg.RetryAfter, qcfg.hookStart = 1, 250*time.Millisecond, gate.hook
			s, c := newTestServer(t, qcfg)
			var wg sync.WaitGroup
			statuses := make([]int, 2)
			for i := range statuses {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := c.HTTP.Post(c.Base+ep.path, "application/json", strings.NewReader(ep.bodies["ok"]))
					if err != nil {
						t.Error(err)
						return
					}
					res.Body.Close()
					statuses[i] = res.StatusCode
				}(i)
				if i == 0 {
					select {
					case <-gate.entered: // the shard is held mid-job
					case <-time.After(10 * time.Second):
						close(gate.release)
						wg.Wait()
						t.Fatal("the first job never reached its shard")
					}
				} else {
					waitQueueLen(t, s, 1) // the second job is parked in the queue
				}
			}
			res, eb := postJob(t, c, ep.path, ep.bodies["ok"])
			close(gate.release)
			wg.Wait()
			if res.StatusCode != http.StatusTooManyRequests || res.Header.Get("Retry-After") != "1" || eb.RetryAfterMs != 250 {
				t.Fatalf("full pool: HTTP %d, Retry-After %q, %+v; want 429, \"1\", 250 ms",
					res.StatusCode, res.Header.Get("Retry-After"), eb)
			}
			if statuses[0] != http.StatusOK || statuses[1] != http.StatusOK {
				t.Fatalf("admitted jobs answered %v, want 200s", statuses)
			}
			if got := s.counters.rejected.Load(); got != 1 {
				t.Fatalf("rejected = %d, want 1", got)
			}
		}},
		{"draining", func(t *testing.T, ep jobEndpoint, _ string) {
			s, c := newTestServer(t, cfg)
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			res, eb := postJob(t, c, ep.path, ep.bodies["ok"])
			if res.StatusCode != http.StatusServiceUnavailable || eb.Error == "" {
				t.Fatalf("draining server: HTTP %d %+v, want 503", res.StatusCode, eb)
			}
			if got := s.counters.drainRejects.Load(); got != 1 {
				t.Fatalf("draining = %d, want 1", got)
			}
		}},
		{"failed", func(t *testing.T, ep jobEndpoint, _ string) {
			fcfg := cfg
			fcfg.hookStart = func(shard int, id uint64) { panic("injected shard fault") }
			s, c := newTestServer(t, fcfg)
			res, eb := postJob(t, c, ep.path, ep.bodies["ok"])
			if res.StatusCode != http.StatusInternalServerError || eb.Error != ep.failed {
				t.Fatalf("panicking job: HTTP %d %+v, want 500 %q", res.StatusCode, eb, ep.failed)
			}
			if f, n := s.counters.failed.Load(), s.counters.finished.Load(); f != 1 || n != 0 {
				t.Fatalf("failed = %d, finished = %d; want 1, 0", f, n)
			}
		}},
		// The client is gone before the job leaves the queue. The request
		// context is canceled up front, the deterministic equivalent of an
		// HTTP client that hung up while queued (net/http notices a hang-up
		// asynchronously, so driving this over a socket races).
		{"canceled", func(t *testing.T, ep jobEndpoint, _ string) {
			var started atomic.Bool
			ccfg := cfg
			ccfg.hookStart = func(shard int, id uint64) { started.Store(true) }
			s, _ := newTestServer(t, ccfg)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			req := httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(ep.bodies["ok"])).WithContext(ctx)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("canceled job answered %d, want 500", rec.Code)
			}
			if started.Load() {
				t.Fatal("canceled job ran on its shard")
			}
			if cn, n, f := s.counters.canceled.Load(), s.counters.finished.Load(), s.counters.failed.Load(); cn != 1 || n != 0 || f != 0 {
				t.Fatalf("canceled = %d, finished = %d, failed = %d; want 1, 0, 0", cn, n, f)
			}
		}},
	}
	endpoints := jobEndpoints(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, ep := range endpoints {
				t.Run(strings.TrimPrefix(ep.path, "/"), func(t *testing.T) { tc.check(t, ep, ep.bodies[tc.name]) })
			}
		})
	}
}

func TestMetricsSnapshot(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 2, QueueDepth: 8})
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	for i := 0; i < 5; i++ {
		mustMinimize(t, c, RequestFor(p, "osm_bt"))
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) != 2 || snap.QueueCap != 8 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	if snap.Counters.Accepted != 5 || snap.Counters.Finished != 5 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.Latency.Count != 5 || snap.Latency.P50Ns <= 0 {
		t.Fatalf("latency: %+v", snap.Latency)
	}
	var jobs uint64
	for _, sh := range snap.Shards {
		jobs += sh.Jobs
	}
	if jobs != 5 {
		t.Fatalf("shard jobs sum to %d, want 5", jobs)
	}
	found := false
	for _, h := range snap.Heuristics {
		if h.Applications > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no per-heuristic applications recorded: %+v", snap.Heuristics)
	}
}

func TestHealthz(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 1})
	status, body, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || body.State != "ok" || body.Shards != 1 {
		t.Fatalf("healthz: %d %+v", status, body)
	}
}

// TestServerTraceValidates feeds the server's full event stream (lifecycle
// ServeEvents interleaved with replayed pipeline events) through the JSONL
// acceptance check.
func TestServerTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	jl := obs.NewJSONL(&buf)
	s := New(Config{Shards: 1, Trace: jl})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	c := &Client{Base: ts.URL, HTTP: ts.Client()}
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	for _, h := range []string{"osm_bt", "sched", "restr"} {
		mustMinimize(t, c, RequestFor(p, h))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := jl.Err(); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if n == 0 {
		t.Fatalf("no events written")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"ev":"serve"`)) {
		t.Fatalf("no serve lifecycle events in trace")
	}
}

// TestRunLoad drives the closed-loop generator against an in-process server
// with verification on — the in-tree version of the bddload acceptance run.
func TestRunLoad(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 2, QueueDepth: 4})
	probs := []*problem.Problem{
		mustProblem(t, problem.KindSpec, testSpec, 0, ""),
		mustProblem(t, problem.KindSpec, "11 dd 00 d0", 0, ""),
		mustProblem(t, problem.KindPLA, testPLA, 0, ""),
		mustProblem(t, problem.KindBLIF, testBLIF, 0, ""),
	}
	stats, err := RunLoad(context.Background(), LoadConfig{
		Client:      c,
		Problems:    Refs(probs, ""),
		Requests:    60,
		Concurrency: 6,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 60 {
		t.Fatalf("completed %d of 60", stats.Requests)
	}
	if len(stats.VerifyFails) > 0 {
		t.Fatalf("verify failures: %v", stats.VerifyFails)
	}
	if len(stats.Errors) > 0 {
		t.Fatalf("errors: %v", stats.Errors)
	}
	if stats.ByFormat["spec"] == 0 || stats.ByFormat["pla"] == 0 || stats.ByFormat["blif"] == 0 {
		t.Fatalf("formats not mixed: %+v", stats.ByFormat)
	}
	if stats.Percentile(0.5) <= 0 || stats.Throughput() <= 0 {
		t.Fatalf("degenerate stats: %+v", stats)
	}
}

// Percentile is the nearest rank: the sample at index ceil(p·n) − 1 of the
// sorted latencies.
func TestLoadStatsPercentile(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	seq := make([]int, 150)
	for i := range seq {
		seq[len(seq)-1-i] = i + 1 // 150..1, so Percentile must sort
	}
	cases := []struct {
		lat  []time.Duration
		p    float64
		want time.Duration
	}{
		{ms(3, 1, 2), 0.50, 2 * time.Millisecond},
		{ms(seq...), 0.99, 149 * time.Millisecond},
		{ms(seq...), 0.50, 75 * time.Millisecond},
		{ms(seq...), 1, 150 * time.Millisecond},
		{ms(7), 0.50, 7 * time.Millisecond},
		{ms(7), 1, 7 * time.Millisecond},
		{nil, 0.50, 0},
	}
	for _, tc := range cases {
		st := &LoadStats{Latencies: tc.lat}
		if got := st.Percentile(tc.p); got != tc.want {
			t.Errorf("p%g of %d samples = %v, want %v", 100*tc.p, len(tc.lat), got, tc.want)
		}
	}
}

// TestLatencyHistNearestRank: /metrics quantiles take the bucket of the
// nearest-rank sample ⌈q·n⌉, the rank Percentile reads from raw samples,
// so one outlier in a hundred is not the p99 and the lower of two
// samples is the p50.
func TestLatencyHistNearestRank(t *testing.T) {
	var h latencyHist
	for i := 0; i < 99; i++ {
		h.observe(1500)
	}
	h.observe(100_000)
	if got := h.snapshot().P99Ns; got != 2048 {
		t.Errorf("p99 of 99×1.5µs and 1×100µs = %d ns, want the 1.5µs bucket bound 2048", got)
	}
	var two latencyHist
	two.observe(1500)
	two.observe(100_000)
	if got := two.snapshot().P50Ns; got != 2048 {
		t.Errorf("p50 of 1.5µs and 100µs = %d ns, want the lower bucket bound 2048", got)
	}
}
