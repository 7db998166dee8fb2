package route

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestBreakerAbandonedProbeDoesNotWedge is the regression test for the
// half-open wedge: a probe attempt that never reports an outcome (request
// deadline, client disconnect, drain refusal) must give its slot back via
// abandonProbe so the next request can probe — not refuse the backend
// forever.
func TestBreakerAbandonedProbeDoesNotWedge(t *testing.T) {
	var br breaker
	now := time.Now()
	for i := 0; i < 3; i++ {
		br.onFailure(now, 3)
	}
	if s, opens, _ := br.snapshot(); s != "open" || opens != 1 {
		t.Fatalf("after 3 failures: state %q opens %d, want open/1", s, opens)
	}
	later := now.Add(time.Second)
	cooldown := 500 * time.Millisecond

	admit, tok := br.allow(later, cooldown)
	if !admit || tok == 0 {
		t.Fatalf("cooldown elapsed: admit=%v token=%d, want a probe admission", admit, tok)
	}
	if admit, _ := br.allow(later, cooldown); admit {
		t.Fatal("second probe admitted while the first is still in flight")
	}

	// The probe attempt is abandoned without an outcome: releasing the
	// slot must re-admit a fresh probe instead of wedging the circuit.
	br.abandonProbe(tok)
	admit, tok2 := br.allow(later, cooldown)
	if !admit || tok2 == 0 || tok2 == tok {
		t.Fatalf("after abandon: admit=%v token=%d (prev %d), want a fresh probe slot", admit, tok2, tok)
	}

	// A stale abandon (the slot has since been re-granted) must not
	// release the live holder's slot.
	br.abandonProbe(tok)
	if admit, _ := br.allow(later, cooldown); admit {
		t.Fatal("stale abandon released the live probe slot")
	}

	// The live probe settles via onFailure: the circuit re-opens for a
	// full cooldown and the settled token's abandon is a no-op.
	br.onFailure(later, 3)
	br.abandonProbe(tok2)
	if s, opens, _ := br.snapshot(); s != "open" || opens != 2 {
		t.Fatalf("failed probe: state %q opens %d, want open/2", s, opens)
	}
	if admit, _ := br.allow(later.Add(cooldown/2), cooldown); admit {
		t.Fatal("abandon of a settled probe token must not short-circuit the cooldown")
	}
}

// TestAccountAbandoned: judge counts an outcome against its backend and
// circuit whether or not the client is still there to answer; an attempt
// the request's own end cut short never reaches it (see
// TestRouterClientGoneLeavesBackendUnjudged and TestRouterVerdicts'
// deadline case).
func TestAccountAbandoned(t *testing.T) {
	rt := New(Config{Backends: []string{"http://a"}, BreakerThreshold: 2})
	b := rt.backends[0]
	answer := func(status int, body string) {
		rt.judge(b, &proxied{backend: b.addr, status: status, body: []byte(body)}, nil)
	}

	// An attempt timeout and a 500 are two in-band failures: with
	// threshold 2 the circuit must open.
	rt.judge(b, nil, context.DeadlineExceeded)
	if b.timeouts.Load() != 1 {
		t.Fatalf("timeouts = %d, want 1", b.timeouts.Load())
	}
	answer(http.StatusInternalServerError, `{}`)
	if s, opens, _ := b.br.snapshot(); s != "open" || opens != 1 {
		t.Fatalf("after timeout+500: breaker %q opens %d, want open/1", s, opens)
	}

	// A 200 closes the circuit and counts as ok; a corrupt 200 counts
	// against it; a drain 503 is counted but is not circuit evidence.
	answer(http.StatusOK, `{"id":1}`)
	if b.ok.Load() != 1 {
		t.Fatalf("ok = %d, want 1", b.ok.Load())
	}
	if s, _, closes := b.br.snapshot(); s != "closed" || closes != 1 {
		t.Fatalf("after 200: breaker %q closes %d, want closed/1", s, closes)
	}
	answer(http.StatusOK, `{"id":`)
	if b.corrupt.Load() != 1 {
		t.Fatalf("corrupt = %d, want 1", b.corrupt.Load())
	}
	answer(http.StatusServiceUnavailable, `{}`)
	answer(http.StatusServiceUnavailable, `{}`)
	if b.drain503.Load() != 2 {
		t.Fatalf("drain503 = %d, want 2", b.drain503.Load())
	}
	if s, opens, _ := b.br.snapshot(); s != "closed" || opens != 1 {
		t.Fatalf("drain 503s fed the breaker: %q opens %d, want closed/1", s, opens)
	}
}
