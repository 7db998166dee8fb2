package faultnet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// okBackend answers every path with a fixed JSON body.
func okBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"state":"ok","payload":"0123456789abcdef"}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func newProxy(t *testing.T, backend string, sched Schedule) *Proxy {
	t.Helper()
	p, err := New(backend, sched)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func get(t *testing.T, ctx context.Context, url string) (*http.Response, []byte, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	return res, body, err
}

func TestScheduleDeterminism(t *testing.T) {
	s := Script{
		{From: 2, To: 4, Fault: Fault{Kind: Stall}},
		{From: 3, To: 6, Fault: Fault{Kind: Inject500}}, // shadowed at 3 by the stall window
	}
	want := []Kind{Pass, Pass, Stall, Stall, Inject500, Inject500, Pass}
	for seq, k := range want {
		for run := 0; run < 3; run++ { // pure: same seq, same fault, every time
			if got := s.FaultFor(uint64(seq)).Kind; got != k {
				t.Fatalf("Script.FaultFor(%d) run %d = %v, want %v", seq, run, got, k)
			}
		}
	}
	e := EveryNth{N: 3, Offset: 1, Fault: Fault{Kind: Corrupt}}
	for seq := uint64(0); seq < 12; seq++ {
		want := Pass
		if seq%3 == 1 {
			want = Corrupt
		}
		if got := e.FaultFor(seq).Kind; got != want {
			t.Fatalf("EveryNth.FaultFor(%d) = %v, want %v", seq, got, want)
		}
	}
}

func TestPassForwardsVerbatim(t *testing.T) {
	srv := okBackend(t)
	p := newProxy(t, srv.URL, Clean{})
	res, body, err := get(t, context.Background(), p.URL()+"/minimize")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if res.StatusCode != http.StatusOK || !strings.Contains(string(body), `"state":"ok"`) {
		t.Fatalf("pass-through got %d %q", res.StatusCode, body)
	}
	if p.seq.Load() != 1 {
		t.Fatalf("seq = %d, want 1", p.seq.Load())
	}
}

func TestInject500AndCorrupt(t *testing.T) {
	srv := okBackend(t)
	p := newProxy(t, srv.URL, Script{
		{From: 0, To: 1, Fault: Fault{Kind: Inject500}},
		{From: 1, To: 2, Fault: Fault{Kind: Corrupt}},
	})
	res, _, err := get(t, context.Background(), p.URL()+"/minimize")
	if err != nil || res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("want injected 500, got %v %v", res, err)
	}
	res, body, err := get(t, context.Background(), p.URL()+"/minimize")
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("want corrupt 200, got %v %v", res, err)
	}
	if json := strings.TrimSpace(string(body)); strings.HasPrefix(json, "{") && strings.HasSuffix(json, "}") {
		t.Fatalf("corrupt body parses as JSON-ish: %q", body)
	}
	counts := p.Counts()
	if counts["inject500"] != 1 || counts["corrupt"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestTruncateBreaksBodyRead(t *testing.T) {
	srv := okBackend(t)
	p := newProxy(t, srv.URL, EveryNth{N: 1, Fault: Fault{Kind: Truncate}})
	_, _, err := get(t, context.Background(), p.URL()+"/minimize")
	if err == nil {
		t.Fatal("truncated response read succeeded; want an unexpected EOF")
	}
}

func TestResetDropsConnection(t *testing.T) {
	srv := okBackend(t)
	p := newProxy(t, srv.URL, EveryNth{N: 1, Fault: Fault{Kind: Reset}})
	if _, _, err := get(t, context.Background(), p.URL()+"/minimize"); err == nil {
		t.Fatal("reset request succeeded; want a transport error")
	}
}

func TestStallBlocksUntilClientDeadline(t *testing.T) {
	srv := okBackend(t)
	p := newProxy(t, srv.URL, EveryNth{N: 1, Fault: Fault{Kind: Stall}})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := get(t, ctx, p.URL()+"/minimize")
	if err == nil {
		t.Fatal("stalled request succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("stall gave up after %v, before the client deadline", elapsed)
	}
}

func TestCloseUnblocksStalls(t *testing.T) {
	srv := okBackend(t)
	p := newProxy(t, srv.URL, EveryNth{N: 1, Fault: Fault{Kind: Stall}})
	done := make(chan error, 1)
	go func() {
		_, _, err := get(t, context.Background(), p.URL()+"/minimize")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the stall take hold
	_ = p.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled request succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the stalled request")
	}
}

func TestHealthzPassesCleanDuringFaults(t *testing.T) {
	srv := okBackend(t)
	// Every work request stalls, but the probe path stays clean — the
	// definition of a grey failure.
	p := newProxy(t, srv.URL, EveryNth{N: 1, Fault: Fault{Kind: Stall}})
	res, _, err := get(t, context.Background(), p.URL()+"/healthz")
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("healthz through stalling proxy: %v %v, want clean 200", res, err)
	}
	if p.seq.Load() != 0 {
		t.Fatalf("healthz consumed a work-sequence slot (seq %d)", p.seq.Load())
	}
}
