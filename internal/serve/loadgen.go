package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bddmin/internal/problem"
)

// Closed-loop load generation against a running bddmind: C workers each
// keep exactly one request in flight, replaying a corpus round-robin until
// the target request count is reached. Closed-loop means backpressure is
// respected by construction — a 429 makes the worker sleep out the
// server's Retry-After hint and retry the same instance, so overload slows
// the harness down instead of erroring it out, which is exactly the
// contract the admission layer advertises.

// LoadConfig parameterizes RunLoad.
type LoadConfig struct {
	// Client reaches the server under test.
	Client *Client
	// Problems is the corpus, replayed round-robin.
	Problems []*ProblemRef
	// Requests is the total number of jobs to complete.
	Requests int
	// Concurrency is the number of closed-loop workers (default 4).
	Concurrency int
	// Heuristic applies to every request ("" lets the server default).
	Heuristic string
	// TimeoutMs is forwarded per request (0 = server default).
	TimeoutMs int
	// BudgetNodes is forwarded per request (0 = server default).
	BudgetNodes uint64
	// Verify re-checks covers client-side (f·c ≤ g ≤ f + ¬c). Every
	// distinct (instance, cover) pair is verified once; replays of
	// byte-identical covers — the normal case once the round-robin wraps
	// and the server answers from its cache — reuse the verdict, so
	// verification cost scales with distinct results rather than request
	// count.
	Verify bool
	// MaxRetries bounds consecutive 429 retries per request (default 50).
	MaxRetries int
}

// ProblemRef pairs a corpus problem with its prebuilt wire request, so the
// hot loop does no re-parsing.
type ProblemRef struct {
	Problem *problem.Problem
	Request MinimizeRequest
}

// Refs prebuilds the wire form of a corpus for RunLoad.
func Refs(probs []*problem.Problem, heuristic string) []*ProblemRef {
	out := make([]*ProblemRef, len(probs))
	for i, p := range probs {
		out[i] = &ProblemRef{Problem: p, Request: RequestFor(p, heuristic)}
	}
	return out
}

// LoadStats is the result of a load run, as bddload and bddchaos print it.
type LoadStats struct {
	Requests    int      // completed (HTTP 200) requests
	Degraded    int      // of which degraded by a budget abort
	CacheHits   int      // responses marked cached by the server
	Rejected429 int      // backpressure rejections absorbed by retry
	ErrorCount  int      // every failed request (Errors keeps only the first errCap)
	Errors      []string // transport/HTTP errors (capped)
	VerifyFails []string // cover-condition violations (capped)
	ByFormat    map[string]int
	// ByBackend attributes completed requests to the fleet member that
	// produced them (from the router's X-Bddmind-Backend header); empty
	// when the target is a single bddmind rather than a router.
	// CacheByBackend counts the subset answered from that backend's
	// result cache — per-node locality under consistent-hash placement.
	ByBackend      map[string]int
	CacheByBackend map[string]int
	// StatusCounts histograms every terminal HTTP status the harness saw
	// (200s, passed-through 4xx/5xx, router 502/503/504) plus the retried
	// 429s — the accounting identity a chaos run audits: every issued
	// request lands in exactly one of Requests, ErrorCount, or a canceled
	// context, and StatusCounts says which doors the failures went through.
	StatusCounts map[int]int
	Elapsed      time.Duration
	Latencies    []time.Duration // per completed request, unordered
}

// Throughput returns completed requests per second.
func (st *LoadStats) Throughput() float64 {
	if st.Elapsed <= 0 {
		return 0
	}
	return float64(st.Requests) / st.Elapsed.Seconds()
}

// Percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of the
// collected latencies: the smallest latency with at least p·n of the n
// samples at or below it. It returns 0 when none were collected.
func (st *LoadStats) Percentile(p float64) time.Duration {
	if len(st.Latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), st.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[nearestRank(p, len(sorted))-1]
}

// nearestRank is the 1-based rank of the nearest-rank q-quantile among n
// sorted samples: ⌈q·n⌉, clamped to [1, n].
func nearestRank(q float64, n int) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		return 1
	}
	if k > n {
		return n
	}
	return k
}

// errCap bounds the error and verify-failure lists kept in memory.
const errCap = 32

// RunLoad drives the closed loop and aggregates the stats. It fails fast
// only on configuration errors; per-request failures are collected.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadStats, error) {
	if cfg.Client == nil || len(cfg.Problems) == 0 || cfg.Requests <= 0 {
		return nil, fmt.Errorf("serve: load config needs a client, a corpus and a positive request count")
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 4
	}
	maxRetries := cfg.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 50
	}
	var (
		issued   atomic.Int64
		mu       sync.Mutex
		stats    = &LoadStats{ByFormat: map[string]int{}, ByBackend: map[string]int{}, CacheByBackend: map[string]int{}, StatusCounts: map[int]int{}}
		wg       sync.WaitGroup
		verifyMu sync.Mutex
		verdicts = map[string]error{}
		started  = time.Now()
	)
	record := func(fn func()) {
		mu.Lock()
		fn()
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq := issued.Add(1) - 1
				if seq >= int64(cfg.Requests) || ctx.Err() != nil {
					return
				}
				ref := cfg.Problems[int(seq)%len(cfg.Problems)]
				req := ref.Request
				if cfg.Heuristic != "" {
					req.Heuristic = cfg.Heuristic
				}
				req.TimeoutMs = cfg.TimeoutMs
				req.BudgetNodes = cfg.BudgetNodes
				start := time.Now()
				resp, ok := submitWithRetry(ctx, cfg.Client, req, maxRetries, stats, record)
				if !ok {
					continue
				}
				lat := time.Since(start)
				var verifyErr error
				if cfg.Verify {
					vkey := ref.Problem.CanonicalKey() + "\x00" + resp.Cover
					verifyMu.Lock()
					v, seen := verdicts[vkey]
					verifyMu.Unlock()
					if seen {
						verifyErr = v
					} else {
						verifyErr = VerifyResponse(ref.Problem, resp)
						verifyMu.Lock()
						verdicts[vkey] = verifyErr
						verifyMu.Unlock()
					}
				}
				record(func() {
					stats.Requests++
					stats.Latencies = append(stats.Latencies, lat)
					stats.ByFormat[resp.Format]++
					if resp.Degraded {
						stats.Degraded++
					}
					if resp.Cached {
						stats.CacheHits++
					}
					if resp.Backend != "" {
						stats.ByBackend[resp.Backend]++
						if resp.Cached {
							stats.CacheByBackend[resp.Backend]++
						}
					}
					if verifyErr != nil && len(stats.VerifyFails) < errCap {
						stats.VerifyFails = append(stats.VerifyFails, verifyErr.Error())
					}
				})
			}
		}()
	}
	wg.Wait()
	stats.Elapsed = time.Since(started)
	return stats, nil
}

// submitWithRetry posts one job, absorbing 429 backpressure by honoring
// the Retry-After hint. Any other non-200 outcome is recorded as an error.
func submitWithRetry(ctx context.Context, c *Client, req MinimizeRequest, maxRetries int, stats *LoadStats, record func(func())) (*MinimizeResponse, bool) {
	for attempt := 0; ; attempt++ {
		resp, status, errBody, err := c.Minimize(ctx, req)
		record(func() { stats.StatusCounts[status]++ }) // status 0 = transport error
		switch {
		case err != nil:
			record(func() {
				stats.ErrorCount++
				if len(stats.Errors) < errCap {
					stats.Errors = append(stats.Errors, err.Error())
				}
			})
			return nil, false
		case status == http.StatusOK:
			return resp, true
		case status == http.StatusTooManyRequests && attempt < maxRetries:
			record(func() { stats.Rejected429++ })
			backoff := 10 * time.Millisecond
			if errBody != nil && errBody.RetryAfterMs > 0 {
				backoff = time.Duration(errBody.RetryAfterMs) * time.Millisecond
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, false
			}
		default:
			msg := fmt.Sprintf("HTTP %d", status)
			if errBody != nil && errBody.Error != "" {
				msg += ": " + errBody.Error
			}
			record(func() {
				stats.ErrorCount++
				if len(stats.Errors) < errCap {
					stats.Errors = append(stats.Errors, msg)
				}
			})
			return nil, false
		}
	}
}
