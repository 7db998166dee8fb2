// Command bddchaos is the deterministic chaos scenario runner for the
// multi-node minimization service: it boots an in-process fleet of real
// bddmind backends, puts one of them behind a faultnet proxy with a
// scripted fault schedule (its /healthz stays clean, so the failure is
// grey — only the router's in-band machinery can catch it), fronts the
// fleet with an in-process bddrouter configured for grey-failure
// tolerance, drives closed-loop verified load through it, and asserts
// the chaos invariants:
//
//  1. no request unaccounted for — completed + errored == issued;
//  2. no invalid cover ever returned — zero client-side verify
//     failures (f·c ≤ g ≤ f + ¬c re-checked against every response);
//  3. every end-to-end latency bounded by the request deadline
//     (-timeout-ms) plus -slack.
//
// Faults are a pure function of the request sequence number (see
// internal/faultnet), so a scenario is a reproducible test case, not a
// lucky observation.
//
// Usage:
//
//	bddchaos [-scenario stall500] [-backends 3] [-n 200] [-c 4]
//	         [-timeout-ms 3000] [-slack 2.5s] [-shards 2]
//	         [-attempt-timeout 200ms]
//	         [-breaker-threshold 3] [-breaker-cooldown 250ms]
//
// Scenarios (the faulted member is always the first backend):
//
//	baseline    no faults — the control run
//	stall       every request to the faulted member stalls forever;
//	            the breaker must contain it for the whole run
//	stall500    scripted grey window: stalls, then injected 500s, then
//	            recovery — the CI smoke scenario; after the load the
//	            runner waits for the breaker to close again and
//	            requires both transitions
//	grey-mixed  rotating stall / 500 / corrupt-JSON / added-latency
//	            faults on a fixed cadence
//
// The run ends by printing the router's /metrics document (one line,
// prefixed "bddchaos: router metrics:") so transitions are greppable.
// Exit status: 0 all invariants hold, 1 configuration or boot trouble,
// 2 invariant violated.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"bddmin/internal/faultnet"
	"bddmin/internal/problem"
	"bddmin/internal/route"
	"bddmin/internal/serve"
)

func main() {
	var (
		scenario    = flag.String("scenario", "stall500", "fault scenario: baseline | stall | stall500 | grey-mixed")
		backends    = flag.Int("backends", 3, "fleet size (first member is the faulted one)")
		n           = flag.Int("n", 200, "total requests to complete")
		c           = flag.Int("c", 4, "closed-loop concurrency")
		timeoutMs   = flag.Int("timeout-ms", 3000, "per-request deadline (the latency bound under test)")
		slack       = flag.Duration("slack", 2500*time.Millisecond, "allowed latency above the deadline (client-side scheduling)")
		shards      = flag.Int("shards", 2, "worker shards per backend")
		attemptTO   = flag.Duration("attempt-timeout", 200*time.Millisecond, "router per-attempt forward timeout")
		brThreshold = flag.Int("breaker-threshold", 3, "router breaker threshold")
		brCooldown  = flag.Duration("breaker-cooldown", 250*time.Millisecond, "router breaker cooldown")
	)
	flag.Parse()
	if *backends < 2 {
		fail(fmt.Errorf("bddchaos: need at least 2 backends for failover, got %d", *backends))
	}
	sched, wantBreaker, wantClose := schedule(*scenario, *brThreshold)
	if sched == nil {
		fail(fmt.Errorf("bddchaos: unknown scenario %q", *scenario))
	}

	// Boot the fleet: real bddmind servers on real listeners, the first
	// one reached only through the fault proxy.
	fleet := make([]*member, *backends)
	for i := range fleet {
		m, err := startMember(*shards)
		if err != nil {
			fail(err)
		}
		defer m.stop()
		fleet[i] = m
	}
	proxy, err := faultnet.New(fleet[0].url, sched)
	if err != nil {
		fail(err)
	}
	defer proxy.Close()
	urls := make([]string, *backends)
	urls[0] = proxy.URL()
	for i := 1; i < *backends; i++ {
		urls[i] = fleet[i].url
	}

	rt := route.New(route.Config{
		Backends:         urls,
		ProbeInterval:    50 * time.Millisecond,
		AttemptTimeout:   *attemptTO,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
		RetryBackoff:     2 * time.Millisecond,
		RetryBudgetMax:   4 * *n,
		RetryBudgetRatio: 1,
		HTTP: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 32,
		}},
	})
	rt.Start()
	defer rt.Close()
	frontLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	front := &http.Server{Handler: rt.Handler()}
	go func() { _ = front.Serve(frontLis) }()
	defer front.Close()
	frontURL := "http://" + frontLis.Addr().String()

	// Half the corpus is owned by the faulted member — the scripted
	// schedule is guaranteed traffic — and half by the rest of the ring.
	probs, err := corpus(urls, 4)
	if err != nil {
		fail(err)
	}
	fmt.Printf("bddchaos: scenario %s, %d backends (1 faulted), %d requests at concurrency %d, deadline %dms\n",
		*scenario, *backends, *n, *c, *timeoutMs)

	started := time.Now()
	stats, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		Client:      &serve.Client{Base: frontURL},
		Problems:    serve.Refs(probs, ""),
		Requests:    *n,
		Concurrency: *c,
		TimeoutMs:   *timeoutMs,
		Verify:      true,
	})
	if err != nil {
		fail(err)
	}

	// Recovery phase: scenarios whose schedule ends in clean behavior
	// must show the breaker closing again — the half-open probe proves
	// the backend is readmitted to first-choice placement.
	if wantClose {
		awaitBreakerClose(rt, proxy.URL(), &serve.Client{Base: frontURL}, probs)
	}

	final := rt.Metrics()
	victim := backendRow(final, proxy.URL())
	fmt.Printf("bddchaos: %d completed, %d errors in %s; statuses %v; faults injected %v\n",
		stats.Requests, stats.ErrorCount, time.Since(started).Round(time.Millisecond), stats.StatusCounts, proxy.Counts())
	fmt.Printf("bddchaos: verify failures: %d\n", len(stats.VerifyFails))
	fmt.Printf("bddchaos: victim breaker state %s, opens %d, closes %d, timeouts %d, retried 5xx %d, corrupt %d\n",
		victim.BreakerState, victim.BreakerOpens, victim.BreakerCloses, victim.Timeouts, victim.Retried5xx, victim.Corrupt)
	if raw, err := json.Marshal(final); err == nil {
		fmt.Printf("bddchaos: router metrics: %s\n", raw)
	}

	violated := false
	violate := func(format string, args ...any) {
		violated = true
		fmt.Fprintf(os.Stderr, "bddchaos: INVARIANT VIOLATED: "+format+"\n", args...)
	}
	if got := stats.Requests + stats.ErrorCount; got != *n {
		violate("%d completed + %d errors = %d, issued %d — requests unaccounted for",
			stats.Requests, stats.ErrorCount, got, *n)
	}
	if len(stats.VerifyFails) > 0 {
		violate("%d covers failed client-side verification; first: %s", len(stats.VerifyFails), stats.VerifyFails[0])
	}
	bound := time.Duration(*timeoutMs)*time.Millisecond + *slack
	for _, lat := range stats.Latencies {
		if lat > bound {
			violate("latency %v exceeds deadline %dms + slack %v", lat, *timeoutMs, *slack)
			break
		}
	}
	if wantBreaker && victim.BreakerOpens < 1 {
		violate("scenario %s never opened the victim's circuit: %+v", *scenario, victim)
	}
	if wantClose && victim.BreakerCloses < 1 {
		violate("scenario %s recovered but the circuit never closed: %+v", *scenario, victim)
	}
	if violated {
		os.Exit(2)
	}
	fmt.Println("bddchaos: all invariants hold")
}

// schedule maps a scenario name to its fault schedule and which breaker
// transitions the run must exhibit.
func schedule(name string, threshold int) (sched faultnet.Schedule, wantBreaker, wantClose bool) {
	t := uint64(threshold)
	switch name {
	case "baseline":
		return faultnet.Clean{}, false, false
	case "stall":
		return faultnet.EveryNth{N: 1, Fault: faultnet.Fault{Kind: faultnet.Stall}}, true, false
	case "stall500":
		// Exactly enough stalls to open the circuit, then 500s on the
		// half-open probes, then clean recovery.
		return faultnet.Script{
			{From: 0, To: t, Fault: faultnet.Fault{Kind: faultnet.Stall}},
			{From: t, To: t + 5, Fault: faultnet.Fault{Kind: faultnet.Inject500}},
		}, true, true
	case "grey-mixed":
		return greyMixed{}, true, false
	}
	return nil, false, false
}

// greyMixed rotates fault kinds on a fixed cadence: of every 8 work
// requests, one stalls, one 500s, one is corrupted and one is slowed;
// the rest pass.
type greyMixed struct{}

func (greyMixed) FaultFor(seq uint64) faultnet.Fault {
	switch seq % 8 {
	case 1:
		return faultnet.Fault{Kind: faultnet.Stall}
	case 3:
		return faultnet.Fault{Kind: faultnet.Inject500}
	case 5:
		return faultnet.Fault{Kind: faultnet.Corrupt}
	case 7:
		return faultnet.Fault{Kind: faultnet.Latency, Delay: 300 * time.Millisecond}
	}
	return faultnet.Fault{Kind: faultnet.Pass}
}

// member is one in-process bddmind on a real TCP listener.
type member struct {
	srv *serve.Server
	hs  *http.Server
	url string
}

func startMember(shards int) (*member, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := serve.New(serve.Config{Shards: shards, QueueDepth: 128})
	s.Start()
	m := &member{srv: s, hs: &http.Server{Handler: s.Handler()}, url: "http://" + lis.Addr().String()}
	go func() { _ = m.hs.Serve(lis) }()
	return m, nil
}

func (m *member) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = m.srv.Drain(ctx)
	_ = m.hs.Close()
}

// corpus builds a spec corpus with n instances owned by the faulted
// backend (ring index 0) and n owned by the rest, using the same ring
// the router builds so placement matches exactly.
func corpus(urls []string, n int) ([]*problem.Problem, error) {
	ring := route.NewRing(urls, route.VirtualNodes)
	groups := []string{"01", "10", "0d", "d0", "1d", "d1", "00", "11"}
	var victims, others []*problem.Problem
	for _, a := range groups {
		for _, b := range groups {
			for _, c := range groups {
				for _, d := range groups {
					if len(victims) >= n && len(others) >= n {
						return append(victims[:n], others[:n]...), nil
					}
					p, err := problem.FromSpec(a + " " + b + " " + c + " " + d)
					if err != nil {
						continue
					}
					if ring.Owner(problem.KeyHash(p.CanonicalKey())) == 0 {
						victims = append(victims, p)
					} else {
						others = append(others, p)
					}
				}
			}
		}
	}
	return nil, fmt.Errorf("bddchaos: spec space exhausted before filling the corpus")
}

// awaitBreakerClose sends victim-owned requests until the half-open
// probe succeeds and the circuit closes (bounded at 15s — the scripted
// faults are over, so recovery failing is itself a finding, reported by
// the wantClose invariant).
func awaitBreakerClose(rt *route.Router, victimURL string, client *serve.Client, probs []*problem.Problem) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if backendRow(rt.Metrics(), victimURL).BreakerState == "closed" {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _, _, _ = client.Minimize(ctx, serve.RequestFor(probs[0], ""))
		cancel()
		time.Sleep(50 * time.Millisecond)
	}
}

func backendRow(ms route.MetricsSnapshot, addr string) route.BackendSnapshot {
	for _, b := range ms.Backends {
		if b.Backend == addr {
			return b
		}
	}
	return route.BackendSnapshot{}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
