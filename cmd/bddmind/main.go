// Command bddmind is the minimization daemon: an HTTP/JSON service that
// accepts jobs in the framework's three input formats (leaf-notation spec,
// PLA, BLIF+node) and runs them on a sharded worker pool, one private BDD
// manager per shard.
//
// Usage:
//
//	bddmind [-addr :8080] [-shards N] [-queue N] [-max-vars N]
//	        [-req-nodes N] [-live-nodes N] [-timeout D] [-max-timeout D]
//	        [-retry-after D] [-cache on|off]
//	        [-cache-entries N] [-cache-bytes N] [-trace-out serve.jsonl]
//	        [-drain-timeout D]
//
// Endpoints:
//
//	POST /minimize   one job; 200 with the cover (possibly degraded),
//	                 429 + Retry-After under backpressure, 503 while
//	                 draining
//	POST /optimize-network   whole-network don't-care optimization of a
//	                 BLIF netlist (package network): 200 with the per-sweep
//	                 trajectory and the rewritten BLIF, same admission
//	                 control and budgets as /minimize; never cached
//	GET  /healthz    200 ok / 503 draining
//	GET  /metrics    queue depth, shard utilization, latency histogram,
//	                 per-heuristic metrics, admission counters
//
// Resource limits map onto kernel budgets: -req-nodes caps every
// request's node allocations (bdd.Budget.MaxNodesMade), -live-nodes
// bounds each shard's arena, -timeout/-max-timeout set and clamp request
// deadlines. A tripped budget degrades the request to the best valid
// intermediate cover instead of failing it.
//
// The result cache is on by default: a complete cover is stored in a
// byte-budgeted LRU under the heuristic and the instance's canonical key,
// and later requests for the same instance, with any budget, are answered
// from it at admission. -cache off disables it; -cache-entries and
// -cache-bytes bound the store.
//
// SIGTERM or SIGINT starts a graceful drain: admission stops (503), the
// queued and in-flight jobs finish, then the process exits 0. -trace-out
// streams the request lifecycle and every request's pipeline events as
// JSONL (see docs/ARCHITECTURE.md for the schema).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bddmin/internal/obs"
	"bddmin/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		shards       = flag.Int("shards", 2, "worker pool size (one private BDD manager each)")
		queue        = flag.Int("queue", 64, "bounded admission queue depth (full queue = 429)")
		maxVars      = flag.Int("max-vars", 64, "largest instance accepted, in BDD variables (413 beyond)")
		reqNodes     = flag.Uint64("req-nodes", 0, "per-request node-allocation cap (0 = unlimited)")
		liveNodes    = flag.Int("live-nodes", 0, "per-shard live-node bound (0 = unlimited)")
		timeout      = flag.Duration("timeout", 0, "default per-request deadline, e.g. 2s (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 0, "clamp on requested deadlines (0 = no clamp)")
		retryAfter   = flag.Duration("retry-after", 500*time.Millisecond, "backoff hint attached to 429 responses")
		cache        = flag.String("cache", "on", "result cache: on or off")
		cacheEntries = flag.Int("cache-entries", 4096, "result-cache entry cap")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "result-cache byte budget")
		traceOut     = flag.String("trace-out", "", "write the serve + pipeline event stream as JSONL to this file")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain may take")
	)
	flag.Parse()

	cfg := serve.Config{
		Shards:             *shards,
		QueueDepth:         *queue,
		MaxVars:            *maxVars,
		MaxNodesPerRequest: *reqNodes,
		MaxLiveNodes:       *liveNodes,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		RetryAfter:         *retryAfter,
	}
	switch *cache {
	case "on":
		cfg.CacheEntries = *cacheEntries
		cfg.CacheBytes = *cacheBytes
	case "off":
		// Leave both zero: serve.New builds no cache.
	default:
		fail(fmt.Errorf("bddmind: -cache must be on or off, got %q", *cache))
	}
	if *traceOut != "" {
		jl, err := obs.CreateJSONL(*traceOut, false)
		if err != nil {
			fail(err)
		}
		cfg.Trace = jl
		defer func() {
			if err := jl.Close(); err != nil {
				fail(err)
			}
		}()
	}

	s := serve.New(cfg)
	s.Start()
	httpServer := &http.Server{Addr: *addr, Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("bddmind: listening on %s (%d shards, queue %d)\n", *addr, *shards, *queue)
		errc <- httpServer.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fail(err)
	case sig := <-sigc:
		fmt.Printf("bddmind: %v received, draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain first so queued work finishes and new requests see 503, then
	// shut the HTTP server down — its handlers are unblocked by the
	// responses the drain delivered.
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bddmind: %v\n", err)
		os.Exit(1)
	}
	if err := httpServer.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bddmind: shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("bddmind: drained cleanly, exiting")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
