package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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

func TestAdmissionErrors(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 1, MaxVars: 4})
	post := func(body string) (int, ErrorResponse) {
		t.Helper()
		res, err := c.HTTP.Post(c.Base+"/minimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var eb ErrorResponse
		_ = json.NewDecoder(res.Body).Decode(&eb)
		return res.StatusCode, eb
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad-json", "{not json", http.StatusBadRequest},
		{"bad-instance", `{"format":"spec","input":"xx"}`, http.StatusBadRequest},
		{"bad-format", `{"format":"vhdl","input":"01"}`, http.StatusBadRequest},
		{"bad-heuristic", `{"format":"spec","input":"01 10","heuristic":"magic"}`, http.StatusBadRequest},
		{"too-large", `{"format":"spec","input":"` + strings.Repeat("d", 32) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, eb := post(tc.body)
			if status != tc.want {
				t.Fatalf("HTTP %d (%+v), want %d", status, eb, tc.want)
			}
			if eb.Error == "" {
				t.Fatalf("error body missing")
			}
		})
	}
	t.Run("method", func(t *testing.T) {
		res, err := c.HTTP.Get(c.Base + "/minimize")
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /minimize = %d, want 405", res.StatusCode)
		}
	})
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
