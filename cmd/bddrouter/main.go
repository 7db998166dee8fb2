// Command bddrouter is the stateless multi-node front of the
// minimization service: it places POST /minimize jobs on a fleet of
// bddmind backends with a consistent-hash ring keyed on the instance's
// canonical key (problem.Key, hashed), so identical instances always land
// on the backend whose result cache can answer them, and cache locality
// survives a node joining or leaving.
//
// Usage:
//
//	bddrouter -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	          [-addr :8090] [-probe-interval 1s] [-retry-backoff 25ms]
//	          [-attempt-timeout 0]
//	          [-breaker-threshold 5] [-breaker-cooldown 5s]
//	          [-retry-budget 32] [-retry-ratio 0.1]
//	          [-trace-out route.jsonl]
//
// Endpoints:
//
//	POST /minimize   proxied to the instance's ring backend, with
//	                 failover to the next ring node on connection error,
//	                 attempt timeout, truncated/corrupt response or 503
//	                 drain refusal (5xx answers are retried once), one
//	                 attempt at a time and each backend at most once; 429
//	                 backpressure is passed through with Retry-After
//	                 intact; every proxied response carries
//	                 X-Bddmind-Backend
//	GET  /healthz    200 while at least one backend is admitted
//	GET  /metrics    per-backend request/error/ejection/breaker counters,
//	                 the retry histogram, deadline/retry-budget counters,
//	                 and the ring composition
//
// Placement gives every backend 128 virtual nodes on the ring.
//
// Health: each backend's GET /healthz is probed every -probe-interval,
// each probe bounded at 500ms; two consecutive failures eject it from
// candidate selection (a draining bddmind answers 503 and is ejected
// before it starts refusing work), two consecutive successes re-admit
// it.
//
// Grey failures — backends that pass probes but stall, truncate or 500
// real traffic — are handled in-band: -attempt-timeout abandons a
// stalled forward, the request's timeout_ms rides along as an
// end-to-end deadline (propagated and shrunk across attempts via
// X-Bddmind-Deadline-Ms), a backend response over 32 MiB fails its
// attempt, and per-backend circuit breakers (-breaker-threshold /
// -breaker-cooldown) skip a sick backend the way probe ejection skips a
// dead one. The global retry budget (-retry-budget / -retry-ratio)
// bounds the extra attempts failover may add. See docs/OPERATIONS.md
// for the symptom → knob runbook.
//
// SIGTERM or SIGINT stops the probers and shuts the HTTP server down
// gracefully. The router holds no state worth draining — in-flight
// proxied requests complete, then it exits 0.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bddmin/internal/obs"
	"bddmin/internal/route"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		backends      = flag.String("backends", "", "comma-separated bddmind base URLs (required)")
		probeInterval = flag.Duration("probe-interval", time.Second, "health-probe period per backend")
		retryBackoff  = flag.Duration("retry-backoff", 25*time.Millisecond, "base jittered pause between failover attempts")
		attemptTO     = flag.Duration("attempt-timeout", 0, "per-attempt forward timeout; a stalled backend is abandoned and failed over (0 = unbounded)")
		brThreshold   = flag.Int("breaker-threshold", 5, "consecutive in-band failures before a backend's circuit opens")
		brCooldown    = flag.Duration("breaker-cooldown", 5*time.Second, "open-circuit cooldown before a half-open probe attempt")
		retryBudget   = flag.Int("retry-budget", 32, "retry-budget bucket capacity (failover attempts)")
		retryRatio    = flag.Float64("retry-ratio", 0.1, "retry-budget tokens earned per incoming request")
		traceOut      = flag.String("trace-out", "", "write route events (forwarded/failover/breaker-open/...) as JSONL to this file")
	)
	flag.Parse()
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, strings.TrimRight(b, "/"))
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "bddrouter: -backends is required (comma-separated base URLs)")
		flag.Usage()
		os.Exit(1)
	}

	cfg := route.Config{
		Backends:         urls,
		ProbeInterval:    *probeInterval,
		RetryBackoff:     *retryBackoff,
		AttemptTimeout:   *attemptTO,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
		RetryBudgetMax:   *retryBudget,
		RetryBudgetRatio: *retryRatio,
		// One pooled client for probes and forwards, sized generously: the
		// router multiplexes many client connections onto few backends.
		HTTP: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
		}},
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		bw := bufio.NewWriter(f)
		jl := obs.NewJSONL(bw)
		jl.Timings = true
		cfg.Trace = jl
		defer func() {
			if err := jl.Err(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			bw.Flush()
			f.Close()
		}()
	}

	rt := route.New(cfg)
	rt.Start()
	httpServer := &http.Server{Addr: *addr, Handler: rt.Handler()}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("bddrouter: listening on %s, %d backends, %d vnodes each\n", *addr, len(urls), route.VirtualNodes)
		errc <- httpServer.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fail(err)
	case sig := <-sigc:
		fmt.Printf("bddrouter: %v received, shutting down\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bddrouter: shutdown: %v\n", err)
		os.Exit(1)
	}
	rt.Close()
	fmt.Println("bddrouter: exiting")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
