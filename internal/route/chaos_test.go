package route

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"bddmin/internal/faultnet"
	"bddmin/internal/problem"
	"bddmin/internal/serve"
)

// TestRouterChaosScenario is the deterministic chaos acceptance test:
// three real bddmind backends, one of them behind a faultnet proxy with
// a scripted stall → 500 → corrupt schedule (its /healthz stays clean,
// so probe-based ejection never fires and only the in-band grey-failure
// machinery can protect the fleet). Closed-loop verified load must
// satisfy the three chaos invariants:
//
//  1. no request unaccounted for — completed + errored == issued;
//  2. no invalid cover ever returned — zero client-side verify failures;
//  3. every latency bounded by the request deadline plus slack.
func TestRouterChaosScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet test")
	}
	fleet := []*liveBackend{startLive(t, ""), startLive(t, ""), startLive(t, "")}
	defer func() {
		for _, b := range fleet {
			b.drainAndStop(t)
		}
	}()
	// The faulted member stalls exactly BreakerThreshold work requests
	// (opening its circuit), then 500s and corrupts the half-open probe
	// attempts that follow, then behaves — a pure function of the request
	// sequence, reproducible at any concurrency.
	proxy, err := faultnet.New(fleet[0].url, faultnet.Script{
		{From: 0, To: 3, Fault: faultnet.Fault{Kind: faultnet.Stall}},
		{From: 3, To: 8, Fault: faultnet.Fault{Kind: faultnet.Inject500}},
		{From: 8, To: 12, Fault: faultnet.Fault{Kind: faultnet.Corrupt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	urls := []string{proxy.URL(), fleet[1].url, fleet[2].url}
	rt := New(Config{
		Backends:         urls,
		ProbeInterval:    25 * time.Millisecond,
		AttemptTimeout:   200 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		RetryBackoff:     2 * time.Millisecond,
		RetryBudgetMax:   1000,
		RetryBudgetRatio: 1,
	})
	rt.Start()
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Half the corpus is owned by the faulted member, so the fault
	// schedule is guaranteed to see routed traffic; the other half keeps
	// the healthy members busy at the same time.
	probs := chaosCorpus(t, rt, 4)

	const target = 120
	const timeoutMs = 3000
	stats, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		Client:      &serve.Client{Base: front.URL},
		Problems:    serve.Refs(probs, ""),
		Requests:    target,
		Concurrency: 4,
		TimeoutMs:   timeoutMs,
		Verify:      true,
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	final := rt.Metrics()
	row := backendRow(final, proxy.URL())
	t.Logf("chaos: %d ok, %d errors, statuses %v, faults %v, victim %+v, counters %+v",
		stats.Requests, stats.ErrorCount, stats.StatusCounts, proxy.Counts(), row, final.Counters)

	// Invariant 1: every issued request is accounted for.
	if got := stats.Requests + stats.ErrorCount; got != target {
		t.Fatalf("%d completed + %d errors = %d, issued %d — requests unaccounted for",
			stats.Requests, stats.ErrorCount, got, target)
	}
	// Invariant 2: no invalid cover ever reached the client.
	if len(stats.VerifyFails) > 0 {
		t.Fatalf("%d covers failed verification under chaos: %v", len(stats.VerifyFails), stats.VerifyFails[0])
	}
	// Invariant 3: the deadline bounds every latency (plus generous
	// scheduling slack for -race).
	bound := timeoutMs*time.Millisecond + 2500*time.Millisecond
	for _, lat := range stats.Latencies {
		if lat > bound {
			t.Fatalf("latency %v exceeds deadline %dms + slack", lat, timeoutMs)
		}
	}
	// The grey-failure machinery must actually have fired: stalls were
	// abandoned at the attempt timeout and the breaker opened on the
	// consecutive failures.
	if row.Timeouts < 3 {
		t.Fatalf("victim timeouts = %d, want ≥3 (stall window not exercised)", row.Timeouts)
	}
	if row.BreakerOpens < 1 {
		t.Fatalf("victim breaker never opened: %+v", row)
	}
	// The fleet absorbed the chaos: the vast majority of requests
	// completed despite a third of it misbehaving.
	if stats.ErrorCount*10 > target {
		t.Fatalf("%d of %d requests failed — chaos was not absorbed", stats.ErrorCount, target)
	}
}

// chaosCorpus builds a spec corpus with n instances owned by the faulted
// backend (index 0) and n owned by the rest of the ring.
func chaosCorpus(t *testing.T, rt *Router, n int) []*problem.Problem {
	t.Helper()
	groups := []string{"01", "10", "0d", "d0", "1d", "d1", "00", "11"}
	var victims, others []*problem.Problem
	for _, a := range groups {
		for _, b := range groups {
			for _, c := range groups {
				for _, d := range groups {
					if len(victims) >= n && len(others) >= n {
						return append(victims[:n], others[:n]...)
					}
					p, err := problem.FromSpec(a + " " + b + " " + c + " " + d)
					if err != nil {
						continue
					}
					if rt.ring.Owner(problem.KeyHash(p.CanonicalKey())) == 0 {
						victims = append(victims, p)
					} else {
						others = append(others, p)
					}
				}
			}
		}
	}
	t.Fatal("spec space exhausted before filling the chaos corpus")
	return nil
}
