package route

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bddmin/internal/faultnet"
	"bddmin/internal/problem"
	"bddmin/internal/serve"
)

// specOwnedBy searches the 3-variable spec space for an instance whose
// ring owner is the wanted backend index — the way grey-failure tests
// force traffic onto the faulted fleet member regardless of which
// ephemeral ports the ring hashed this run.
func specOwnedBy(t *testing.T, rt *Router, want int) *problem.Problem {
	t.Helper()
	groups := []string{"01", "10", "0d", "d0", "1d", "d1", "00", "11"}
	for _, a := range groups {
		for _, b := range groups {
			for _, c := range groups {
				for _, d := range groups {
					spec := a + " " + b + " " + c + " " + d
					p, err := problem.FromSpec(spec)
					if err != nil {
						continue
					}
					if rt.ring.Owner(problem.KeyHash(p.CanonicalKey())) == want {
						return p
					}
				}
			}
		}
	}
	t.Fatalf("no 3-var spec owned by backend %d", want)
	return nil
}

// TestRouterStallFailoverAndBreaker is the satellite slow-backend test:
// an accept-then-stall backend (grey — its /healthz stays clean) is
// abandoned at the attempt timeout, the request fails over and
// completes, and after BreakerThreshold consecutive timeouts the circuit
// opens so later requests skip the stalling backend without paying the
// timeout again.
func TestRouterStallFailoverAndBreaker(t *testing.T) {
	sick := newStub(t)
	proxy, err := faultnet.New(sick.ts.URL, faultnet.EveryNth{N: 1, Fault: faultnet.Fault{Kind: faultnet.Stall}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	good := newStub(t)
	rt, client, _ := newRouter(t, Config{
		Backends:         []string{proxy.URL(), good.ts.URL},
		AttemptTimeout:   100 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute, // stays open for the rest of the test
		RetryBackoff:     time.Millisecond,
	})
	p := specOwnedBy(t, rt, 0)

	for i := 0; i < 3; i++ {
		start := time.Now()
		resp, status, eb, err := client.Minimize(context.Background(), serve.RequestFor(p, ""))
		if err != nil || status != http.StatusOK {
			t.Fatalf("request %d: status %d, errBody %+v, err %v — stall was not failed over", i, status, eb, err)
		}
		if resp.Backend != good.ts.URL {
			t.Fatalf("request %d answered by %s, want the healthy backend %s", i, resp.Backend, good.ts.URL)
		}
		if e := time.Since(start); e < 90*time.Millisecond {
			t.Fatalf("request %d completed in %v — the stalled attempt was never actually tried", i, e)
		}
	}
	ms := rt.Metrics()
	row := backendRow(ms, proxy.URL())
	if row.Timeouts != 3 {
		t.Fatalf("stalled backend timeouts = %d, want 3: %+v", row.Timeouts, row)
	}
	if row.BreakerState != "open" || row.BreakerOpens != 1 {
		t.Fatalf("breaker after 3 timeouts: state %q opens %d, want open/1", row.BreakerState, row.BreakerOpens)
	}

	// With the circuit open, the stalling backend is skipped entirely:
	// the next request completes fast and sends it no traffic.
	start := time.Now()
	resp, status, _, err := client.Minimize(context.Background(), serve.RequestFor(p, ""))
	if err != nil || status != http.StatusOK || resp.Backend != good.ts.URL {
		t.Fatalf("post-open request: %v %d %v", resp, status, err)
	}
	if e := time.Since(start); e > 80*time.Millisecond {
		t.Fatalf("post-open request took %v — it paid the stall timeout despite the open circuit", e)
	}
	if after := backendRow(rt.Metrics(), proxy.URL()); after.Requests != row.Requests {
		t.Fatalf("open circuit still received traffic: %d -> %d attempts", row.Requests, after.Requests)
	}
}

// TestRouterAbandonedProbeDoesNotWedgeBreaker is the router-level wedge
// regression: a stalling backend whose circuit is half-open gets the
// probe attempt, and the request's deadline ends it before any outcome.
// The abandoned probe must release its slot — every subsequent request
// probes the backend again instead of the circuit refusing it forever (a
// grey-failed backend passes its health probes, so no readmission would
// ever reset it).
func TestRouterAbandonedProbeDoesNotWedgeBreaker(t *testing.T) {
	sick := newStub(t)
	proxy, err := faultnet.New(sick.ts.URL, faultnet.EveryNth{N: 1, Fault: faultnet.Fault{Kind: faultnet.Stall}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	good := newStub(t)
	rt, client, _ := newRouter(t, Config{
		Backends:         []string{proxy.URL(), good.ts.URL},
		AttemptTimeout:   5 * time.Second, // never fires: the request deadline abandons the stalled probe
		BreakerThreshold: 1,
		RetryBackoff:     time.Millisecond,
	})
	p := specOwnedBy(t, rt, 0)
	// Open the victim's circuit as in-band evidence would, backdating the
	// transition so the cooldown has already elapsed: the next attempt is
	// a half-open probe.
	rt.backends[0].br.onFailure(time.Now().Add(-time.Minute), 1)

	req := serve.RequestFor(p, "")
	req.TimeoutMs = 50
	for i := 0; i < 3; i++ {
		if _, status, _, err := client.Minimize(context.Background(), req); err != nil || status != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status %d, err %v, want 504 at the deadline", i, status, err)
		}
	}
	if row := backendRow(rt.Metrics(), good.ts.URL); row.Requests != 0 {
		t.Fatalf("healthy backend received %d attempts, want 0 (every deadline ends on the probe)", row.Requests)
	}
	row := backendRow(rt.Metrics(), proxy.URL())
	if row.Requests != 3 {
		t.Fatalf("half-open victim received %d probe attempts, want 3 — an abandoned probe wedged the circuit", row.Requests)
	}
	if row.BreakerState != "half-open" {
		t.Fatalf("victim breaker state %q, want half-open (probes abandoned, never judged)", row.BreakerState)
	}
}

// TestRouterDeadline504: when no backend answers inside the request's
// own timeout_ms, the router terminates the request with an honest 504
// at the deadline — bounded worst-case latency instead of a hang.
func TestRouterDeadline504(t *testing.T) {
	sick := newStub(t)
	proxy, err := faultnet.New(sick.ts.URL, faultnet.EveryNth{N: 1, Fault: faultnet.Fault{Kind: faultnet.Stall}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	rt, client, _ := newRouter(t, Config{Backends: []string{proxy.URL()}})

	req := serve.RequestFor(mustSpec(t, testSpec), "")
	req.TimeoutMs = 300
	start := time.Now()
	_, status, eb, err := client.Minimize(context.Background(), req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (body %+v), want 504", status, eb)
	}
	if elapsed < 280*time.Millisecond || elapsed > 1500*time.Millisecond {
		t.Fatalf("504 after %v, want ≈300ms (deadline-bounded)", elapsed)
	}
	if ms := rt.Metrics(); ms.Counters.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", ms.Counters.DeadlineExceeded)
	}
}

// TestRouterDeadlinePropagationShrinks: every forwarded attempt carries
// X-Bddmind-Deadline-Ms, and a failover attempt carries *less* than its
// predecessor — the elapsed backoff has been deducted, so retries can
// never exceed the client's original budget.
func TestRouterDeadlinePropagationShrinks(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []int64
	)
	recordHeader := func(r *http.Request) {
		ms, err := strconv.ParseInt(r.Header.Get(serve.DeadlineHeader), 10, 64)
		if err != nil {
			t.Errorf("attempt without a parsable %s header: %v", serve.DeadlineHeader, err)
			return
		}
		mu.Lock()
		seen = append(seen, ms)
		mu.Unlock()
	}
	drainMux := http.NewServeMux()
	drainMux.HandleFunc("/minimize", func(w http.ResponseWriter, r *http.Request) {
		recordHeader(r)
		writeJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: "server is draining"})
	})
	drainer := httptest.NewServer(drainMux)
	t.Cleanup(drainer.Close)
	okMux := http.NewServeMux()
	okMux.HandleFunc("/minimize", func(w http.ResponseWriter, r *http.Request) {
		recordHeader(r)
		writeJSON(w, http.StatusOK, serve.MinimizeResponse{ID: 7, Format: "spec", Cover: "stub"})
	})
	okSrv := httptest.NewServer(okMux)
	t.Cleanup(okSrv.Close)

	rt, client, _ := newRouter(t, Config{
		Backends:     []string{drainer.URL, okSrv.URL},
		RetryBackoff: 60 * time.Millisecond,
	})
	p := specOwnedBy(t, rt, 0)
	req := serve.RequestFor(p, "")
	req.TimeoutMs = 1000
	if _, status, _, err := client.Minimize(context.Background(), req); err != nil || status != http.StatusOK {
		t.Fatalf("status %d, err %v", status, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("recorded %d attempts (%v), want 2", len(seen), seen)
	}
	if seen[0] > 1000 || seen[0] < 900 {
		t.Fatalf("first attempt deadline %dms, want ≈1000ms", seen[0])
	}
	// The failover waited out a ≥30ms jittered backoff, so its budget
	// must have shrunk by at least a visible margin.
	if seen[1] > seen[0]-20 {
		t.Fatalf("failover deadline %dms after first %dms — the budget did not shrink", seen[1], seen[0])
	}
}

// TestRouterDeadlineHeaderOverflow: an X-Bddmind-Deadline-Ms value too
// large for a time.Duration is ignored like an unparsable one. It must
// not wrap into "no deadline": the body's timeout_ms still bounds the
// request and reaches the backend.
func TestRouterDeadlineHeaderOverflow(t *testing.T) {
	seen := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get(serve.DeadlineHeader)
		writeJSON(w, http.StatusOK, serve.MinimizeResponse{ID: 7, Format: "spec", Cover: "stub"})
	}))
	t.Cleanup(ts.Close)
	_, _, front := newRouter(t, Config{Backends: []string{ts.URL}})
	req := serve.RequestFor(mustSpec(t, testSpec), "")
	req.TimeoutMs = 1000
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, front.URL+"/minimize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(serve.DeadlineHeader, "10000000000000")
	res, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", res.StatusCode)
	}
	hdr := <-seen
	if ms, err := strconv.ParseInt(hdr, 10, 64); err != nil || ms > 1000 || ms < 900 {
		t.Fatalf("backend saw %s %q, want the body's ≈1000ms budget", serve.DeadlineHeader, hdr)
	}
}

// TestRouterTimeoutMsOverflow: a body timeout_ms too large for a
// time.Duration counts as no timeout_ms, like an overflowing header. It
// must not wrap into a sub-millisecond deadline that 504s the request
// before a backend can answer.
func TestRouterTimeoutMsOverflow(t *testing.T) {
	seen := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get(serve.DeadlineHeader)
		time.Sleep(20 * time.Millisecond)
		writeJSON(w, http.StatusOK, serve.MinimizeResponse{ID: 7, Format: "spec", Cover: "stub"})
	}))
	t.Cleanup(ts.Close)
	_, client, _ := newRouter(t, Config{Backends: []string{ts.URL}})
	req := serve.RequestFor(mustSpec(t, testSpec), "")
	req.TimeoutMs = 18446744073710 // ×1e6 ns wraps to about 448µs
	_, status, eb, err := client.Minimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d (%+v), want 200", status, eb)
	}
	if hdr := <-seen; hdr != "" {
		t.Fatalf("backend saw %s %q, want none (no deadline)", serve.DeadlineHeader, hdr)
	}
}

// oversized answers with a valid-JSON body just over maxProxiedBody,
// streamed in chunks so the test never holds a copy of it.
func oversized(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, `{"id":1,"cover":"`)
	chunk := bytes.Repeat([]byte("a"), 64<<10)
	for n := 0; n <= maxProxiedBody; n += len(chunk) {
		if _, err := w.Write(chunk); err != nil {
			return // the router stopped reading at its limit
		}
	}
	_, _ = io.WriteString(w, `"}`)
}

// oversizeBackend answers /minimize with an oversized body.
func oversizeBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(oversized))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterTruncationFailsOver is the regression test for the silent
// truncation bug: an oversized backend response must fail the attempt
// (and fail over to a healthy candidate), never be cut at the limit and
// replayed as if complete.
func TestRouterTruncationFailsOver(t *testing.T) {
	big := oversizeBackend(t)
	good := newStub(t)
	rt, client, _ := newRouter(t, Config{
		Backends:     []string{big.URL, good.ts.URL},
		RetryBackoff: time.Millisecond,
	})
	p := specOwnedBy(t, rt, 0)
	resp, status, _, err := client.Minimize(context.Background(), serve.RequestFor(p, ""))
	if err != nil || status != http.StatusOK {
		t.Fatalf("status %d, err %v — oversized response was not failed over", status, err)
	}
	if resp.Backend != good.ts.URL {
		t.Fatalf("answered by %s, want failover to %s", resp.Backend, good.ts.URL)
	}
	if resp.ID != 7 {
		t.Fatalf("response id %d is not the healthy backend's answer", resp.ID)
	}
	if row := backendRow(rt.Metrics(), big.URL); row.Truncated != 1 {
		t.Fatalf("oversize backend truncated = %d, want 1: %+v", row.Truncated, row)
	}
}

// TestRouterTruncationNeverReplayed: with no healthy candidate left, an
// oversized response yields an honest 502 — under no circumstances does
// a cut-off body prefix reach the client as a 200.
func TestRouterTruncationNeverReplayed(t *testing.T) {
	big := oversizeBackend(t)
	rt, _, front := newRouter(t, Config{
		Backends:     []string{big.URL},
		RetryBackoff: time.Millisecond,
	})
	body, _ := json.Marshal(serve.RequestFor(mustSpec(t, testSpec), ""))
	res, err := http.Post(front.URL+"/minimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want an honest 502 — a truncated body must never be replayed", res.StatusCode)
	}
	if row := backendRow(rt.Metrics(), big.URL); row.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", row.Truncated)
	}
}

// TestRouterCorruptBodyFailsOver: a 2xx whose body is not valid JSON is
// treated as a failed attempt — grey backends that mangle responses are
// routed around, and the mangled bytes never reach the client.
func TestRouterCorruptBodyFailsOver(t *testing.T) {
	sick := newStub(t)
	proxy, err := faultnet.New(sick.ts.URL, faultnet.EveryNth{N: 1, Fault: faultnet.Fault{Kind: faultnet.Corrupt}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	good := newStub(t)
	rt, client, _ := newRouter(t, Config{
		Backends:     []string{proxy.URL(), good.ts.URL},
		RetryBackoff: time.Millisecond,
	})
	p := specOwnedBy(t, rt, 0)
	resp, status, _, err := client.Minimize(context.Background(), serve.RequestFor(p, ""))
	if err != nil || status != http.StatusOK {
		t.Fatalf("status %d, err %v — corrupt response was not failed over", status, err)
	}
	if resp.Backend != good.ts.URL || resp.ID != 7 {
		t.Fatalf("answer %+v did not come from the healthy backend", resp)
	}
	if row := backendRow(rt.Metrics(), proxy.URL()); row.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1: %+v", row.Corrupt, row)
	}
}

// TestRouter5xxRetriedOnce is the satellite 5xx-retry test: /minimize is
// idempotent and cache-keyed, so a backend 500 earns exactly one
// failover; a second 5xx is replayed to the client verbatim.
func TestRouter5xxRetriedOnce(t *testing.T) {
	sick := newStub(t)
	proxy, err := faultnet.New(sick.ts.URL, faultnet.EveryNth{N: 1, Fault: faultnet.Fault{Kind: faultnet.Inject500}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	good := newStub(t)
	rt, client, _ := newRouter(t, Config{
		Backends:     []string{proxy.URL(), good.ts.URL},
		RetryBackoff: time.Millisecond,
	})
	p := specOwnedBy(t, rt, 0)
	resp, status, _, err := client.Minimize(context.Background(), serve.RequestFor(p, ""))
	if err != nil || status != http.StatusOK {
		t.Fatalf("status %d, err %v — the 500 was not retried", status, err)
	}
	if resp.Backend != good.ts.URL {
		t.Fatalf("answered by %s, want the retry target %s", resp.Backend, good.ts.URL)
	}
	ms := rt.Metrics()
	if ms.Counters.Retried5xx != 1 {
		t.Fatalf("retried_5xx = %d, want 1", ms.Counters.Retried5xx)
	}
	if row := backendRow(ms, proxy.URL()); row.Retried5xx != 1 {
		t.Fatalf("backend retried_5xx = %d, want 1", row.Retried5xx)
	}
}

// TestRouter5xxEverywhereReplaysHonestly: when the retry also lands on a
// 500ing backend, the client gets the 500 back — one retry, not a storm,
// and never an invented success.
func TestRouter5xxEverywhereReplaysHonestly(t *testing.T) {
	mk500 := func() string {
		mux := http.NewServeMux()
		mux.HandleFunc("/minimize", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusInternalServerError, serve.ErrorResponse{Error: "shard exploded"})
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	rt, client, _ := newRouter(t, Config{
		Backends:     []string{mk500(), mk500()},
		RetryBackoff: time.Millisecond,
	})
	_, status, eb, err := client.Minimize(context.Background(), serve.RequestFor(mustSpec(t, testSpec), ""))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want the replayed 500", status)
	}
	if eb == nil || eb.Error != "shard exploded" {
		t.Fatalf("error body %+v, want the backend's own 500 body", eb)
	}
	if ms := rt.Metrics(); ms.Counters.Retried5xx != 1 {
		t.Fatalf("retried_5xx = %d, want exactly 1 (one retry, then honesty)", ms.Counters.Retried5xx)
	}
}

// TestRouterRetryBudgetExhaustion: with the global retry budget spent,
// an attempt failure becomes the final answer instead of feeding a retry
// storm — and the starvation is counted.
func TestRouterRetryBudgetExhaustion(t *testing.T) {
	a, b := newStub(t), newStub(t)
	a.draining.Store(true)
	rt, client, _ := newRouter(t, Config{
		Backends:         []string{a.ts.URL, b.ts.URL},
		RetryBackoff:     time.Millisecond,
		RetryBudgetMax:   1,
		RetryBudgetRatio: 0.001,
	})
	p := specOwnedBy(t, rt, 0)

	// First request spends the only token on its failover and succeeds.
	if _, status, _, err := client.Minimize(context.Background(), serve.RequestFor(p, "")); err != nil || status != http.StatusOK {
		t.Fatalf("first request: status %d, err %v", status, err)
	}
	// Second request has no token left: the drain 503 is replayed
	// honestly instead of retried.
	_, status, eb, err := client.Minimize(context.Background(), serve.RequestFor(p, ""))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("budget-starved request: status %d (%+v), want the honest 503", status, eb)
	}
	ms := rt.Metrics()
	if ms.Counters.RetryBudgetExhausted != 1 {
		t.Fatalf("retry_budget_exhausted = %d, want 1", ms.Counters.RetryBudgetExhausted)
	}
}

// brokenBody simulates a client connection dying mid-upload: every read
// fails with something that is not a MaxBytesError.
type brokenBody struct{}

func (brokenBody) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
func (brokenBody) Close() error             { return nil }

// TestRouter413Vs400 is the satellite misclassification fix: only an
// actually oversized body is 413; a client that dies mid-upload is 400.
func TestRouter413Vs400(t *testing.T) {
	st := newStub(t)
	rt, _, _ := newRouter(t, Config{Backends: []string{st.ts.URL}})
	h := rt.Handler()

	over := httptest.NewRequest(http.MethodPost, "/minimize", bytes.NewReader(make([]byte, maxRequestBody+100)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, over)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}

	gone := httptest.NewRequest(http.MethodPost, "/minimize", brokenBody{})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, gone)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("mid-upload disconnect: status %d, want 400 (not 413)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "client gone") {
		t.Fatalf("400 body %q does not say the client vanished", rec.Body.String())
	}
	if ms := rt.Metrics(); ms.Counters.BadRequest != 2 {
		t.Fatalf("bad_request = %d, want 2", ms.Counters.BadRequest)
	}
}
