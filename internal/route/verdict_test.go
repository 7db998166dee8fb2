package route

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bddmin/internal/obs"
	"bddmin/internal/serve"
)

// TestRouterVerdicts pins how the router judges each kind of attempt
// outcome: one request per outcome against a two-backend fleet whose ring
// owner produces the outcome and whose second member answers 200. For
// each it checks the owner's per-backend counters, its circuit state
// (threshold 1, so every in-band failure opens it) and the request's
// route events, phases and reasons in emission order. The last case is
// the one outcome that is no verdict: the request's own deadline ends
// the attempt.
func TestRouterVerdicts(t *testing.T) {
	// Long enough for the oversized case to stream maxProxiedBody under
	// -race on a loaded machine before the attempt times out.
	const attemptTimeout = 2 * time.Second
	respond := func(status int, body string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(status)
			_, _ = w.Write([]byte(body))
		}
	}
	type counts struct {
		requests, ok, rejected429, drain503, errors, timeouts, truncated, corrupt, retried5xx uint64
	}
	// stall reads the request, so the server notices when the router
	// abandons it, then never answers.
	stall := func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * attemptTimeout):
		}
	}
	cases := []struct {
		name      string
		handler   http.HandlerFunc // nil: the owner refuses connections
		timeoutMs int              // the request's timeout_ms (0: none)
		status    int              // status the client receives
		counts    counts           // the owner's per-backend counters
		breaker   string           // the owner's circuit state afterwards
		events    []string         // phase(reason) of each route event
	}{
		{
			name: "connect", status: http.StatusOK,
			counts: counts{requests: 1, errors: 1}, breaker: "open",
			events: []string{"failover(connect)", "breaker-open(connect)", "forwarded()"},
		},
		{
			name: "timeout", status: http.StatusOK,
			handler: stall,
			counts:  counts{requests: 1, timeouts: 1}, breaker: "open",
			events: []string{"failover(timeout)", "breaker-open(timeout)", "forwarded()"},
		},
		{
			name: "oversized", status: http.StatusOK,
			handler: oversized,
			counts:  counts{requests: 1, truncated: 1}, breaker: "open",
			events: []string{"failover(truncated)", "breaker-open(truncated)", "forwarded()"},
		},
		{
			name: "drain-503", status: http.StatusOK,
			handler: respond(http.StatusServiceUnavailable, `{"error":"server is draining"}`),
			counts:  counts{requests: 1, drain503: 1}, breaker: "closed",
			events: []string{"failover(drain-503)", "forwarded()"},
		},
		{
			name: "500", status: http.StatusOK,
			handler: respond(http.StatusInternalServerError, `{"error":"minimization failed"}`),
			counts:  counts{requests: 1, retried5xx: 1}, breaker: "open",
			events: []string{"breaker-open(5xx)", "failover(5xx)", "forwarded()"},
		},
		{
			name: "corrupt-200", status: http.StatusOK,
			handler: respond(http.StatusOK, `{"cover":`),
			counts:  counts{requests: 1, corrupt: 1}, breaker: "open",
			events: []string{"failover(corrupt)", "breaker-open(corrupt)", "forwarded()"},
		},
		{
			name: "429", status: http.StatusTooManyRequests,
			handler: respond(http.StatusTooManyRequests, `{"error":"queue full, retry later"}`),
			counts:  counts{requests: 1, rejected429: 1}, breaker: "closed",
			events: []string{"forwarded()"},
		},
		{
			name: "4xx", status: http.StatusBadRequest,
			handler: respond(http.StatusBadRequest, `{"error":"bad instance"}`),
			counts:  counts{requests: 1}, breaker: "closed",
			events: []string{"forwarded()"},
		},
		{
			name: "200", status: http.StatusOK,
			handler: respond(http.StatusOK, `{"id":1}`),
			counts:  counts{requests: 1, ok: 1}, breaker: "closed",
			events: []string{"forwarded()"},
		},
		{
			name: "deadline", status: http.StatusGatewayTimeout,
			handler: stall, timeoutMs: int(attemptTimeout / time.Millisecond / 2),
			counts: counts{requests: 1}, breaker: "closed",
			events: []string{"deadline-exceeded()"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var owner string
			if tc.handler == nil {
				dead := httptest.NewServer(http.NotFoundHandler())
				owner = dead.URL
				dead.Close()
			} else {
				ts := httptest.NewServer(tc.handler)
				t.Cleanup(ts.Close)
				owner = ts.URL
			}
			good := newStub(t)
			buf := &obs.Buffer{}
			rt, _, front := newRouter(t, Config{
				Backends:         []string{owner, good.ts.URL},
				AttemptTimeout:   attemptTimeout,
				BreakerThreshold: 1,
				RetryBackoff:     time.Millisecond,
				Trace:            buf,
			})
			req := serve.RequestFor(specOwnedBy(t, rt, 0), "")
			req.TimeoutMs = tc.timeoutMs
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(front.URL+"/minimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("client got HTTP %d, want %d", resp.StatusCode, tc.status)
			}

			b := rt.backends[0]
			got := counts{
				requests: b.requests.Load(), ok: b.ok.Load(),
				rejected429: b.rejected429.Load(), drain503: b.drain503.Load(),
				errors: b.errors.Load(), timeouts: b.timeouts.Load(),
				truncated: b.truncated.Load(), corrupt: b.corrupt.Load(),
				retried5xx: b.retried5xx.Load(),
			}
			if got != tc.counts {
				t.Errorf("owner counters %+v, want %+v", got, tc.counts)
			}
			if state, _, _ := b.br.snapshot(); state != tc.breaker {
				t.Errorf("owner breaker %q, want %q", state, tc.breaker)
			}
			rt.obsMu.Lock()
			var events []string
			for _, ev := range buf.Events {
				if re, ok := ev.(obs.RouteEvent); ok {
					events = append(events, re.Phase+"("+re.Reason+")")
				}
			}
			rt.obsMu.Unlock()
			if strings.Join(events, " ") != strings.Join(tc.events, " ") {
				t.Errorf("route events %v, want %v", events, tc.events)
			}
		})
	}
}

// TestRouterClientGoneLeavesBackendUnjudged: a client that leaves while
// its attempt is in flight ends the attempt, and that is no verdict on
// the backend — no timeout or error is counted, the circuit stays closed
// and no route event is emitted.
func TestRouterClientGoneLeavesBackendUnjudged(t *testing.T) {
	reached := make(chan struct{}, 1)
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		reached <- struct{}{}
		<-r.Context().Done()
	}))
	t.Cleanup(owner.Close)
	good := newStub(t)
	buf := &obs.Buffer{}
	rt := New(Config{Backends: []string{owner.URL, good.ts.URL}, BreakerThreshold: 1, Trace: buf})
	t.Cleanup(rt.Close)
	routed := make(chan struct{})
	h := rt.Handler()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(routed)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)

	body, err := json.Marshal(serve.RequestFor(specOwnedBy(t, rt, 0), ""))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/minimize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		select {
		case <-reached:
			cancel()
		case <-ctx.Done():
		}
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("request answered HTTP %d after its client left", resp.StatusCode)
	}
	select {
	case <-routed:
	case <-time.After(5 * time.Second):
		t.Fatal("router still routing 5s after the client left")
	}

	b := rt.backends[0]
	if b.requests.Load() != 1 || b.timeouts.Load() != 0 || b.errors.Load() != 0 {
		t.Errorf("owner requests %d timeouts %d errors %d, want 1/0/0", b.requests.Load(), b.timeouts.Load(), b.errors.Load())
	}
	if state, _, _ := b.br.snapshot(); state != "closed" {
		t.Errorf("owner breaker %q, want closed", state)
	}
	if len(buf.Events) != 0 {
		t.Errorf("route events %v, want none", buf.Events)
	}
	if rt.backends[1].requests.Load() != 0 {
		t.Errorf("failed over to the second backend after the client left")
	}
}
