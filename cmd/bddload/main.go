// Command bddload is the closed-loop load generator for bddmind: it
// replays a mixed spec/PLA/BLIF corpus against a running server at a
// target concurrency, verifies every returned cover client-side
// (f·c ≤ g ≤ f + ¬c — the server is not trusted), honors 429 backpressure
// by sleeping out the Retry-After hint, and prints throughput, nearest-rank
// p50/p95/p99 latency, the degraded share and the cache hits.
//
// Usage:
//
//	bddload -corpus examples/corpus/mixed.txt [-addr http://localhost:8080]
//	        [-n 500] [-c 8] [-heuristic osm_bt] [-timeout-ms 0]
//	        [-budget-nodes 0] [-no-verify]
//
// -addr may point at a bddrouter instead of a single bddmind: the harness
// then also prints the per-backend request distribution and per-backend
// cache hits (from the router's X-Bddmind-Backend response header).
//
// The corpus format is one instance per line: a leaf-notation spec, or
// `@pla path [output]` / `@blif path [node]` file references resolved
// relative to the corpus file (see internal/problem).
//
// Exit status: 1 on configuration or transport trouble, 2 if any response
// failed the client-side cover check — an incorrect cover is a server
// bug, not load.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"bddmin/internal/problem"
	"bddmin/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "bddmind base URL")
		corpus      = flag.String("corpus", "", "corpus file: one instance per line (spec, @pla, @blif)")
		n           = flag.Int("n", 500, "total requests to complete")
		c           = flag.Int("c", 8, "closed-loop concurrency (in-flight requests)")
		heuristic   = flag.String("heuristic", "", "heuristic for every request (empty = server default)")
		timeoutMs   = flag.Int("timeout-ms", 0, "per-request deadline forwarded to the server")
		budgetNodes = flag.Uint64("budget-nodes", 0, "per-request node cap forwarded to the server")
		noVerify    = flag.Bool("no-verify", false, "skip the client-side cover check")
		retries     = flag.Int("retries", 50, "max consecutive 429 retries per request")
		wait        = flag.Duration("wait", 5*time.Second, "how long to wait for the server to become healthy")
	)
	flag.Parse()
	if *corpus == "" {
		flag.Usage()
		os.Exit(1)
	}
	probs, err := problem.LoadCorpusFile(*corpus)
	if err != nil {
		fail(err)
	}
	// Size the connection pool to the concurrency: the default transport
	// keeps only 2 idle conns per host, which throttles the offered load
	// with per-request TCP handshakes.
	client := &serve.Client{Base: *addr, HTTP: &http.Client{
		Transport: &http.Transport{MaxIdleConns: *c + 4, MaxIdleConnsPerHost: *c + 4},
	}}
	if err := client.WaitHealthy(*wait); err != nil {
		fail(err)
	}
	fmt.Printf("bddload: %d requests over a %d-instance corpus, concurrency %d, verify=%v\n",
		*n, len(probs), *c, !*noVerify)

	stats, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		Client:      client,
		Problems:    serve.Refs(probs, *heuristic),
		Requests:    *n,
		Concurrency: *c,
		Heuristic:   *heuristic,
		TimeoutMs:   *timeoutMs,
		BudgetNodes: *budgetNodes,
		Verify:      !*noVerify,
		MaxRetries:  *retries,
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("bddload: %d completed in %s (%.1f req/s), p50 %s p95 %s p99 %s\n",
		stats.Requests, stats.Elapsed.Round(time.Millisecond), stats.Throughput(),
		stats.Percentile(0.50).Round(time.Microsecond),
		stats.Percentile(0.95).Round(time.Microsecond),
		stats.Percentile(0.99).Round(time.Microsecond))
	fmt.Printf("bddload: degraded %d (%.1f%%), 429s absorbed %d, errors %d, verify failures %d\n",
		stats.Degraded, percent(stats.Degraded, stats.Requests), stats.Rejected429, stats.ErrorCount, len(stats.VerifyFails))
	fmt.Printf("bddload: cache hits %d (%.1f%%)\n", stats.CacheHits, percent(stats.CacheHits, stats.Requests))
	if len(stats.ByBackend) > 0 {
		backends := make([]string, 0, len(stats.ByBackend))
		for b := range stats.ByBackend {
			backends = append(backends, b)
		}
		sort.Strings(backends)
		for _, b := range backends {
			fmt.Printf("bddload: backend %s served %d (%d cached)\n", b, stats.ByBackend[b], stats.CacheByBackend[b])
		}
	}
	for _, e := range stats.Errors {
		fmt.Fprintf(os.Stderr, "bddload: error: %s\n", e)
	}
	for _, v := range stats.VerifyFails {
		fmt.Fprintf(os.Stderr, "bddload: VERIFY FAIL: %s\n", v)
	}
	if len(stats.VerifyFails) > 0 {
		os.Exit(2)
	}
	if stats.Requests < *n {
		fmt.Fprintf(os.Stderr, "bddload: only %d of %d requests completed\n", stats.Requests, *n)
		os.Exit(1)
	}
}

func percent(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
