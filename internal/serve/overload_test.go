package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bddmin/internal/problem"
)

// hookGate turns cfg.hookStart into a synchronization point: every job
// announces itself on entered, then blocks until release is closed. That
// lets a test hold a shard mid-job deterministically — the only way to
// observe queue-full and drain windows without sleeps.
type hookGate struct {
	entered chan uint64
	release chan struct{}
}

func newHookGate() *hookGate {
	return &hookGate{entered: make(chan uint64, 64), release: make(chan struct{})}
}

func (g *hookGate) hook(shard int, id uint64) {
	g.entered <- id
	<-g.release
}

// waitQueueLen polls the admission queue until it holds n tasks.
func waitQueueLen(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue length never reached %d (at %d)", n, len(s.queue))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueFullBackpressure fills the pool (one job on the shard, one in the
// single queue slot) and checks that the next request is refused with 429,
// a Retry-After header, and the millisecond hint in the body — then that the
// two admitted jobs still complete correctly once the shard resumes.
func TestQueueFullBackpressure(t *testing.T) {
	gate := newHookGate()
	s, c := newTestServer(t, Config{
		Shards: 1, QueueDepth: 1, RetryAfter: 250 * time.Millisecond,
		hookStart: gate.hook,
	})
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	req := RequestFor(p, "osm_bt")

	var wg sync.WaitGroup
	results := make([]*MinimizeResponse, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = mustMinimize(t, c, req)
		}(i)
		if i == 0 {
			<-gate.entered // shard is now held mid-job
		} else {
			waitQueueLen(t, s, 1) // second job parked in the queue
		}
	}

	// Pool full: shard busy, queue full. The next request must bounce.
	body, _ := json.Marshal(req)
	res, err := c.HTTP.Post(c.Base+"/minimize", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var eb ErrorResponse
	_ = json.NewDecoder(res.Body).Decode(&eb)
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full pool answered %d, want 429", res.StatusCode)
	}
	if ra := res.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (250ms rounds up to 1s)", ra)
	}
	if eb.RetryAfterMs != 250 {
		t.Fatalf("retry_after_ms = %d, want 250", eb.RetryAfterMs)
	}

	close(gate.release)
	wg.Wait()
	for i, resp := range results {
		if resp == nil {
			t.Fatalf("admitted request %d got no response", i)
		}
		if err := VerifyResponse(p, resp); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.counters.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestDrainFinishesInFlight starts a drain while one job is running and one
// is queued: both must complete with valid covers, new requests must be
// refused with 503, /healthz must degrade, and Drain must return once the
// pool is idle.
func TestDrainFinishesInFlight(t *testing.T) {
	gate := newHookGate()
	s, c := newTestServer(t, Config{Shards: 1, QueueDepth: 4, hookStart: gate.hook})
	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	req := RequestFor(p, "osm_bt")

	var wg sync.WaitGroup
	results := make([]*MinimizeResponse, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = mustMinimize(t, c, req)
		}(i)
		if i == 0 {
			<-gate.entered
		} else {
			waitQueueLen(t, s, 1)
		}
	}

	drainErr := make(chan error, 1)
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer drainCancel()
	go func() { drainErr <- s.Drain(drainCtx) }()

	// Admission flips to draining immediately (Drain holds the write lock
	// only briefly); wait for it to become observable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body, err := c.Healthz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if status == http.StatusServiceUnavailable && body.State == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported draining (last: %d %+v)", status, body)
		}
		time.Sleep(time.Millisecond)
	}
	_, status, _, err := c.Minimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining server admitted a request (HTTP %d), want 503", status)
	}

	close(gate.release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, resp := range results {
		if resp == nil {
			t.Fatalf("in-flight request %d lost during drain", i)
		}
		if err := VerifyResponse(p, resp); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.counters.drainRejects.Load(); got != 1 {
		t.Fatalf("drain-reject counter = %d, want 1", got)
	}
}

// randSpec builds a deterministic pseudo-random leaf spec over n variables
// (2^n symbols from {0,1,d}) — big enough that a minimization spends many
// budget-check intervals.
func randSpec(n int, seed uint64) string {
	var b strings.Builder
	x := seed
	for i := 0; i < 1<<n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		switch (x >> 33) % 3 {
		case 0:
			b.WriteByte('0')
		case 1:
			b.WriteByte('1')
		default:
			b.WriteByte('d')
		}
	}
	return b.String()
}

// TestDeadlineHeaderOverflowIgnored: a DeadlineHeader too large for a
// time.Duration is ignored like an unparsable one. It must not wrap into
// a deadline in the past that has spent the job's budget before it
// starts.
func TestDeadlineHeaderOverflowIgnored(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 1, MaxVars: 16})
	p := mustProblem(t, problem.KindSpec, randSpec(12, 42), 0, "")
	body, err := json.Marshal(RequestFor(p, "osm_bt"))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, c.Base+"/minimize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(DeadlineHeader, "10000000000000")
	res, err := c.HTTP.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var resp MinimizeResponse
	if res.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatalf("overflowing header expired the job's budget: abort %q in %q", resp.AbortReason, resp.AbortPhase)
	}
	if err := VerifyResponse(p, &resp); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutMsOverflowIgnored: a timeout_ms too large for a
// time.Duration counts as no timeout_ms, like an overflowing
// DeadlineHeader. It must not wrap into a sub-millisecond deadline that
// degrades the job before it starts; the default and the clamp then
// apply.
func TestTimeoutMsOverflowIgnored(t *testing.T) {
	const overflow = 18446744073710 // ×1e6 ns wraps to about 448µs
	_, c := newTestServer(t, Config{
		Shards: 1, MaxVars: 16,
		hookStart: func(shard int, id uint64) { time.Sleep(10 * time.Millisecond) },
	})
	p := mustProblem(t, problem.KindSpec, randSpec(12, 42), 0, "")
	req := RequestFor(p, "osm_bt")
	req.TimeoutMs = overflow
	resp := mustMinimize(t, c, req)
	if resp.Degraded {
		t.Fatalf("overflowing timeout_ms expired the job's budget: abort %q in %q", resp.AbortReason, resp.AbortPhase)
	}
	if err := VerifyResponse(p, resp); err != nil {
		t.Fatal(err)
	}
	if got := New(Config{DefaultTimeout: 2 * time.Second}).timeoutFor(overflow); got != 2*time.Second {
		t.Fatalf("timeoutFor(overflow) = %v, want the 2s default", got)
	}
	if got := New(Config{MaxTimeout: 5 * time.Second}).timeoutFor(overflow); got != 5*time.Second {
		t.Fatalf("timeoutFor(overflow) = %v, want the 5s clamp", got)
	}
}

// TestDeadlineDegrades sends a request whose deadline has already passed by
// the time the shard picks it up (the hook sleeps it out): the response
// must still be a valid cover — the anytime path clamps to the best
// intermediate result, at worst f itself — annotated with the deadline
// abort, never an error.
func TestDeadlineDegrades(t *testing.T) {
	s, c := newTestServer(t, Config{
		Shards: 1, MaxVars: 16,
		hookStart: func(shard int, id uint64) { time.Sleep(10 * time.Millisecond) },
	})
	p := mustProblem(t, problem.KindSpec, randSpec(12, 42), 0, "")
	req := RequestFor(p, "osm_bt")
	req.TimeoutMs = 1
	resp := mustMinimize(t, c, req)
	if resp.Trivial {
		t.Fatalf("random instance unexpectedly trivial")
	}
	if !resp.Degraded {
		t.Fatalf("expired deadline did not degrade: %+v", resp)
	}
	if resp.AbortReason != "deadline" {
		t.Fatalf("abort reason = %q, want \"deadline\"", resp.AbortReason)
	}
	if resp.AbortPhase == "" {
		t.Fatalf("degraded response missing abort phase")
	}
	if err := VerifyResponse(p, resp); err != nil {
		t.Fatal(err)
	}
	if got := s.counters.degraded.Load(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}
}
