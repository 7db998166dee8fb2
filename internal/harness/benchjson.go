package harness

import (
	"encoding/json"
	"io"
	"time"

	"bddmin/internal/obs"
)

// KernelBench is one benchmark measurement destined for BENCH_kernel.json:
// a micro-benchmark of a kernel primitive or a suite-level wall-clock run.
// NodesMade carries the Manager's allocation counter where it is meaningful
// (suite runs and node-building micros), giving later PRs a work measure to
// normalize runtimes against.
type KernelBench struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	NodesMade   uint64  `json:"nodes_made,omitempty"`
	// SweepNodes is the per-sweep internal-node trajectory of a network
	// optimization run (suite/netopt): entry i is the node count after
	// sweep i+1. Monotonically non-increasing by construction.
	SweepNodes []int `json:"sweep_nodes,omitempty"`
}

// HeuristicSummary is the per-heuristic breakdown of one suite sweep,
// aggregated from the pipeline's obs.HeuristicEvent stream: how often
// each heuristic ran across the instrumented calls, how often its result
// would be kept (accepted: never larger than |f|), how often it strictly
// improved, the nodes it saved in total, and its cumulative runtime.
type HeuristicSummary struct {
	Name         string  `json:"name"`
	Applications int     `json:"applications"`
	Accepted     int     `json:"accepted"`
	Wins         int     `json:"wins"`
	NodesSaved   int64   `json:"nodes_saved"`
	TotalNs      float64 `json:"total_ns"`
}

// HeuristicSummaries converts the metrics sink's table into report rows.
func HeuristicSummaries(mt *obs.Metrics) []HeuristicSummary {
	var out []HeuristicSummary
	for _, h := range mt.Table() {
		out = append(out, HeuristicSummary{
			Name:         h.Name,
			Applications: h.Applications,
			Accepted:     h.Accepted,
			Wins:         h.Wins,
			NodesSaved:   h.NodesSaved,
			TotalNs:      float64(h.Time.Nanoseconds()),
		})
	}
	return out
}

// BenchReport is the top-level BENCH_kernel.json document. Successive PRs
// append comparable reports, so the schema carries enough environment to
// interpret the numbers (worker count, GOMAXPROCS, timestamp). Schema /2
// added the per-heuristic breakdown of the sequential suite sweep; /3 added
// the match-kernel and level-match micro-benchmarks (micro/osm_match,
// micro/tsm_match, micro/levelmatch); /4 added parallel level-matching
// entries, which /6 removed again; /5 added the network-optimization suite
// entry (suite/netopt) and its per-sweep node-count trajectory
// (sweep_nodes).
type BenchReport struct {
	Schema     string             `json:"schema"` // "bddmin-bench-kernel/6"
	Timestamp  time.Time          `json:"timestamp"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Workers    int                `json:"workers"`
	Benchmarks []KernelBench      `json:"benchmarks"`
	Heuristics []HeuristicSummary `json:"heuristics,omitempty"`
}

// BenchReportSchema identifies the BENCH_kernel.json layout version.
const BenchReportSchema = "bddmin-bench-kernel/6"

// WriteBenchJSON emits the report as indented JSON.
func WriteBenchJSON(w io.Writer, r BenchReport) error {
	if r.Schema == "" {
		r.Schema = BenchReportSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
