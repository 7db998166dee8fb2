package harness

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/circuits"
	"bddmin/internal/fsm"
	"bddmin/internal/obs"
)

// RunConfig tunes a suite run.
type RunConfig struct {
	Collector Config
	// MaxIterations bounds each benchmark's BFS depth (default 64).
	MaxIterations int
	// MaxNodes aborts a benchmark when the manager exceeds this many live
	// nodes (default 2,000,000). Enforced inside the kernels via a
	// bdd.Budget, so a runaway image computation is stopped mid-recursion.
	MaxNodes int
	// Timeout bounds each benchmark's wall-clock time via the kernel
	// budget (0 = none). An expired benchmark reports an aborted result
	// instead of running away.
	Timeout time.Duration
	// Progress, when non-nil, receives one line per benchmark.
	Progress io.Writer
	// TraceDir, when non-empty, writes one structured JSONL trace file
	// per benchmark, named <benchmark>.trace.jsonl, in addition to any
	// Collector.Tracer. The directory must exist.
	TraceDir string
	// TraceTimings includes nanosecond durations in TraceDir files.
	// Off by default so traces of deterministic runs are byte-identical.
	TraceTimings bool
}

func (rc RunConfig) withDefaults() RunConfig {
	if rc.MaxIterations == 0 {
		rc.MaxIterations = 64
	}
	if rc.MaxNodes == 0 {
		rc.MaxNodes = 2_000_000
	}
	return rc
}

// BenchmarkRun reports one benchmark's traversal outcome.
type BenchmarkRun struct {
	Name   string
	Result fsm.Result
	Calls  int // instrumented minimization calls contributed
}

// RunBenchmark checks one suite machine against itself with the collector
// installed and returns the traversal result. With rc.TraceDir set the
// benchmark's event stream is additionally written to its own
// <name>.trace.jsonl file, on top of any configured tracer; an error
// writing that file is returned, wrapped with the benchmark's name.
func RunBenchmark(info circuits.BenchmarkInfo, col *Collector, rc RunConfig) (_ BenchmarkRun, err error) {
	rc = rc.withDefaults()
	if rc.TraceDir != "" {
		sink, cerr := obs.CreateJSONL(filepath.Join(rc.TraceDir, info.Name+".trace.jsonl"), rc.TraceTimings)
		if cerr != nil {
			return BenchmarkRun{}, fmt.Errorf("harness: %s: %w", info.Name, cerr)
		}
		defer func() {
			if cerr := sink.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("harness: %s: %w", info.Name, cerr)
			}
		}()
		prev := col.Tracer()
		col.SetTracer(obs.Multi(prev, sink))
		defer col.SetTracer(prev)
	}
	m := bdd.New(0)
	net := info.Build()
	p, err := fsm.NewProduct(m, net, net)
	if err != nil {
		return BenchmarkRun{}, fmt.Errorf("harness: %s: %w", info.Name, err)
	}
	col.SetBenchmark(info.Name)
	tr := col.Tracer()
	if tr != nil {
		tr.Emit(obs.BenchmarkEvent{Name: info.Name, Phase: "start"})
	}
	before := len(col.Records)
	var deadline time.Time
	if rc.Timeout > 0 {
		deadline = time.Now().Add(rc.Timeout)
	}
	res := p.CheckEquivalence(fsm.Options{
		Minimize:      col.Hook(),
		OnConstrain:   col.Observer(),
		MaxIterations: rc.MaxIterations,
		MaxNodes:      rc.MaxNodes,
		Deadline:      deadline,
		// Collect every iteration: the instrumented heuristics leave a
		// lot of transient nodes behind.
		GCEvery: 1,
	})
	if !res.Equal {
		return BenchmarkRun{}, fmt.Errorf("harness: %s: self-equivalence failed (instrumentation bug)", info.Name)
	}
	if res.Aborted && tr != nil {
		tr.Emit(obs.AbortEvent{
			Benchmark: info.Name, Name: "traversal",
			Reason: res.AbortReason, Phase: fmt.Sprintf("iteration %d", res.Iterations),
			BestSize: m.Size(res.Reached),
		})
	}
	if tr != nil {
		tr.Emit(obs.GCEvent{Benchmark: info.Name, Live: m.NumNodes(), Runs: m.GCRuns(), NodesMade: m.NodesMade()})
		tr.Emit(obs.BenchmarkEvent{Name: info.Name, Phase: "end"})
	}
	return BenchmarkRun{Name: info.Name, Result: res, Calls: len(col.Records) - before}, nil
}

// RunSuite runs every named benchmark (nil = the full paper suite) on
// obs.RunOrdered's workers (workers <= 0 selects GOMAXPROCS) and returns
// the merged per-call records alongside the per-benchmark traversal
// results, or the first error in request order.
//
// A Manager is not safe for concurrent use, so nothing manager-owned is
// shared: each benchmark builds its own Manager (inside RunBenchmark) and
// records into its own Collector, and the collectors are merged after
// every worker has finished. Runs and records appear in the order of the
// requested names for every worker count (per-call runtimes differ, sizes
// and bounds do not — see TestParallelMatchesSequential). A configured
// rc.Collector.Tracer is never written concurrently: each benchmark's
// events are buffered and replayed in request order, so the merged stream
// is byte-identical for every worker count (modulo durations; see
// TestParallelTraceMergeDeterministic). A heuristic's panic is re-raised
// on the caller's goroutine.
func RunSuite(names []string, rc RunConfig, workers int) (*Collector, []BenchmarkRun, error) {
	if names == nil {
		names = circuits.Names()
	}
	// Resolve all names up front so an unknown benchmark fails before any
	// work is spawned.
	infos := make([]circuits.BenchmarkInfo, len(names))
	for i, name := range names {
		info, err := circuits.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		infos[i] = info
	}
	var (
		cols  = make([]*Collector, len(infos))
		runs  = make([]BenchmarkRun, len(infos))
		errs  = make([]error, len(infos))
		outMu sync.Mutex // serializes Progress lines only
	)
	obs.RunOrdered(len(infos), workers, rc.Collector.Tracer, func(i int, tr obs.Tracer) {
		cfg := rc.Collector
		cfg.Tracer = tr
		col := NewCollector(cfg)
		run, err := RunBenchmark(infos[i], col, rc)
		cols[i], runs[i], errs[i] = col, run, err
		if rc.Progress != nil {
			outMu.Lock()
			if err != nil {
				fmt.Fprintf(rc.Progress, "%-10s FAILED: %v\n", infos[i].Name, err)
			} else {
				fmt.Fprintf(rc.Progress, "%-10s %s (%d minimize calls recorded)\n",
					infos[i].Name, run.Result.String(), run.Calls)
			}
			outMu.Unlock()
		}
	})

	// First error in request order, for determinism.
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	merged := NewCollector(rc.Collector)
	for _, col := range cols {
		merged.Records = append(merged.Records, col.Records...)
		merged.FilteredTrivial += col.FilteredTrivial
	}
	return merged, runs, nil
}
