package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"

	"bddmin/internal/obs"
)

// Wire schema of the bddmind HTTP/JSON API. Documented in
// docs/ARCHITECTURE.md; the request format discriminator matches
// problem.Kind, so anything the CLI can load from a corpus line can be
// forwarded to the server verbatim.

// MinimizeRequest is the body of POST /minimize: one minimization job.
type MinimizeRequest struct {
	// Format selects the input format: "spec", "pla" or "blif".
	Format string `json:"format"`
	// Input is the instance source: the leaf-notation spec string, or the
	// full PLA/BLIF file contents.
	Input string `json:"input"`
	// Output is the PLA output column to minimize (format "pla").
	Output int `json:"output,omitempty"`
	// Node names the BLIF internal node to minimize against its
	// observability don't cares; empty auto-picks the first node with a
	// non-trivial ODC (format "blif").
	Node string `json:"node,omitempty"`
	// Heuristic is a registered heuristic name (default "osm_bt").
	Heuristic string `json:"heuristic,omitempty"`
	// BudgetNodes caps the node allocations of this request
	// (bdd.Budget.MaxNodesMade); the server clamps it to its per-request
	// limit. 0 inherits the server limit.
	BudgetNodes uint64 `json:"budget_nodes,omitempty"`
	// TimeoutMs is the request deadline in milliseconds, mapped to
	// bdd.Budget.Deadline and clamped to the server maximum. 0 inherits
	// the server default. A tripped deadline degrades to the best valid
	// intermediate cover (HTTP 200 with degraded=true), never an error.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Trace returns the request's pipeline event trace in the response.
	Trace bool `json:"trace,omitempty"`
}

// MinimizeResponse is the body of a successful (HTTP 200) minimization,
// degraded or not.
type MinimizeResponse struct {
	ID        uint64 `json:"id"`
	Format    string `json:"format"`
	Heuristic string `json:"heuristic"`
	// Vars is the number of variables of the instance.
	Vars int `json:"vars"`
	// Node is the resolved BLIF node name (format "blif").
	Node string `json:"node,omitempty"`
	// InputSize and CoverSize are |f| and |g| in BDD nodes.
	InputSize int `json:"input_size"`
	CoverSize int `json:"cover_size"`
	// Trivial marks instances solved exactly by the Section 3.1 special
	// cases (empty care set, care set inside the onset or offset).
	Trivial bool `json:"trivial,omitempty"`
	// Spec is the cover in leaf notation, included for instances of at
	// most SpecEchoVars variables (beyond that the truth table explodes).
	Spec string `json:"spec,omitempty"`
	// Cover is the cover BDD in the bdd.WriteFunctions text format, root
	// name "g". Clients reload it with ReadFunctions into a manager with
	// at least CoverVars variables and verify f·c ≤ g ≤ f + ¬c locally.
	Cover string `json:"cover"`
	// CoverVars is the variable count of the serialized cover's source
	// manager (shard managers grow monotonically, so this may exceed Vars).
	CoverVars int `json:"cover_vars"`
	// Degraded reports that the request's budget tripped and the anytime
	// path returned the best valid intermediate cover; AbortReason and
	// AbortPhase say which limit and where.
	Degraded    bool   `json:"degraded,omitempty"`
	AbortReason string `json:"abort_reason,omitempty"`
	AbortPhase  string `json:"abort_phase,omitempty"`
	// Cached marks a response served from the result cache at admission
	// instead of a fresh minimization. Cached results are always complete
	// (degraded covers are never stored).
	Cached bool `json:"cached,omitempty"`
	// Coalesced is never set: the server no longer joins concurrent
	// identical requests. The field stays because bench/serve.go reads it.
	Coalesced bool `json:"coalesced,omitempty"`
	// Shard is the worker that ran the job (-1 for a cache hit, which no
	// shard ran); QueueNs and RunNs split the request's server-side
	// latency into waiting and execution.
	Shard   int   `json:"shard"`
	QueueNs int64 `json:"queue_ns"`
	RunNs   int64 `json:"run_ns"`
	// Trace holds the request's pipeline events as JSONL objects, one per
	// entry, when the request asked for them.
	Trace []json.RawMessage `json:"trace,omitempty"`
	// Backend is filled client-side from the BackendHeader of a response
	// that came through a router; it is not part of the wire body.
	Backend string `json:"-"`
}

// SpecEchoVars bounds the instance width up to which responses echo the
// cover in leaf notation (2^10 symbols at most).
const SpecEchoVars = 10

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMs accompanies 429 responses (mirrors the Retry-After
	// header, in milliseconds for sub-second hints).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// HealthResponse is the body of GET /healthz: 200 with state "ok" while
// serving, 503 with state "draining" once a drain has started. The 503
// begins at the *start* of the drain — while queued and in-flight work is
// still finishing — so a health-probing router (cmd/bddrouter) ejects the
// node before it starts refusing forwarded requests.
type HealthResponse struct {
	State      string `json:"state"` // "ok" or "draining"
	Shards     int    `json:"shards"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
}

// BackendHeader is the response header a fronting router stamps with the
// base URL of the backend that produced a proxied response. The Client
// surfaces it as MinimizeResponse.Backend so the load harness can record
// the per-backend request distribution; bddmind itself never sets it.
const BackendHeader = "X-Bddmind-Backend"

// DeadlineHeader carries the remaining end-to-end request budget in
// milliseconds. A fronting router (cmd/bddrouter) stamps it on every
// forwarded attempt, shrunk by the time already spent on earlier
// attempts, so failover can never exceed the client's original
// timeout_ms; the Client sets it from its context deadline. Admission
// maps the header onto bdd.Budget.Deadline exactly like timeout_ms,
// except that the header only ever *tightens* the budget — it is ignored
// when it is later than the body-derived deadline. Like every budget
// limit it stays out of the result-cache key: a complete cached result
// is correct under any deadline.
const DeadlineHeader = "X-Bddmind-Deadline-Ms"

// DeadlineBudget returns the budget h carries in DeadlineHeader, or 0
// when the header is absent, not a positive integer, or too large for a
// time.Duration. Both the router and bddmind read the header through it,
// so a value either side ignores can neither lift nor collapse a
// deadline.
func DeadlineBudget(h http.Header) time.Duration {
	// A value ParseInt rejects comes back 0 or out of range: no budget.
	ms, _ := strconv.ParseInt(h.Get(DeadlineHeader), 10, 64)
	return MillisBudget(ms)
}

// MillisBudget converts a millisecond budget — DeadlineHeader's or a
// request's timeout_ms — to a time.Duration, or 0 (no budget) when ms is
// not positive or too large for a time.Duration, so an overflowing value
// can never wrap into a short deadline.
func MillisBudget(ms int64) time.Duration {
	if ms <= 0 || ms > int64(math.MaxInt64/time.Millisecond) {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// ShardSnapshot is one worker's state in GET /metrics.
type ShardSnapshot struct {
	Shard int `json:"shard"`
	// Jobs is the number of requests the shard has executed.
	Jobs uint64 `json:"jobs"`
	// BusyNs is cumulative execution time; Utilization is BusyNs over the
	// server's uptime.
	BusyNs      int64   `json:"busy_ns"`
	Utilization float64 `json:"utilization"`
	// Vars, LiveNodes and NodesMade describe the shard's private manager
	// after its last job (managers grow monotonically and are GC'd
	// between jobs).
	Vars      int    `json:"vars"`
	LiveNodes int    `json:"live_nodes"`
	NodesMade uint64 `json:"nodes_made"`
}

// CounterSnapshot aggregates the admission and completion counters.
type CounterSnapshot struct {
	Accepted uint64 `json:"accepted"` // admitted into the queue
	Finished uint64 `json:"finished"` // completed with a valid cover
	Degraded uint64 `json:"degraded"` // finished via the anytime path
	Aborts   uint64 `json:"aborts"`   // budget aborts observed (≥ degraded)
	Rejected uint64 `json:"rejected"` // 429: queue full
	Draining uint64 `json:"draining"` // 503: refused during drain
	Invalid  uint64 `json:"invalid"`  // 400/413: malformed or oversized
	Canceled uint64 `json:"canceled"` // client gone before execution
	Failed   uint64 `json:"failed"`   // 500: internal errors
}

// LatencyBucket is one histogram cell: requests with total latency at most
// LeNs nanoseconds (and above the previous bucket's bound).
type LatencyBucket struct {
	LeNs  int64  `json:"le_ns"`
	Count uint64 `json:"count"`
}

// LatencySnapshot summarizes the end-to-end request latency (queue + run)
// of finished requests. Quantiles are histogram upper-bound estimates; the
// load harness computes exact ones client-side.
type LatencySnapshot struct {
	Count   uint64          `json:"count"`
	MeanNs  float64         `json:"mean_ns"`
	MaxNs   int64           `json:"max_ns"`
	P50Ns   int64           `json:"p50_ns"`
	P95Ns   int64           `json:"p95_ns"`
	P99Ns   int64           `json:"p99_ns"`
	Buckets []LatencyBucket `json:"buckets"`
}

// CacheSnapshot is the result-cache section of GET /metrics. ReqHits are
// requests answered from the cache at admission.
type CacheSnapshot struct {
	Enabled    bool   `json:"enabled"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	MaxEntries int    `json:"max_entries,omitempty"`
	MaxBytes   int64  `json:"max_bytes,omitempty"`
	ReqHits    uint64 `json:"req_hits"`
	Misses     uint64 `json:"misses"`
	Inserts    uint64 `json:"inserts"`
	Evictions  uint64 `json:"evictions"`
}

// MetricsSnapshot is the body of GET /metrics.
type MetricsSnapshot struct {
	UptimeNs   int64           `json:"uptime_ns"`
	Shards     []ShardSnapshot `json:"shards"`
	QueueDepth int             `json:"queue_depth"`
	QueueCap   int             `json:"queue_cap"`
	Counters   CounterSnapshot `json:"counters"`
	Cache      CacheSnapshot   `json:"cache"`
	Latency    LatencySnapshot `json:"latency"`
	// Heuristics is the per-heuristic table, aggregated from the pipeline's
	// obs.HeuristicEvent stream across all shards.
	Heuristics []obs.HeuristicMetrics `json:"heuristics"`
}
