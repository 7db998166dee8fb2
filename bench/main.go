// Command bench is the repository's benchmark. It drives the minimization
// framework through its public packages on four workloads and prints every
// metric by name with its unit, after checking that the outputs are
// correct. Run it from the repository root:
//
//	bash bench/run.sh --workload table3|netopt|serve-cold|serve-hot|all --seed N
//	    [--seconds S] [--trace 0|1] [-trace-dir DIR] [-count N] [-o result.json]
//	    [-compare BASE.json]
//
// Times and rates are reported at a reference machine speed (see speed.go).
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) measures untraced, then again with spans around the calls
// into each layer, reports the per-layer metrics and the difference between
// the two as tracing overhead, and writes the spans to
// DIR/<workload>.trace.jsonl. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// With -workload all or -count N > 1 every run is a child process of its
// own, so peak memory is per run; run i uses seed N+i. -o writes all runs
// with per-metric medians and quartiles, and -compare prints the change of
// each median against an earlier -o file, flagging those beyond the bound
// BENCHMARK.json sets.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is a metric's name and unit, as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"throughput", "op/s"},
	{"slo_ok_frac", "ratio"},
	{"size_ratio", "ratio"},
	{"rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reads 0. Time is given as a share of the workload's own time
// (batch: the traced program time; serving: the sum of open-loop
// latencies), so a layer's share bounds what speeding it up can save.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"fsm.self_share", "ratio"},
		{"harness.record_self_share", "ratio"},
	}
	for _, h := range []string{"const", "restr", "osm_td", "osm_nv", "osm_cp", "osm_bt", "tsm_td", "tsm_cp", "opt_lv", "f_and_c", "f_or_nc", "f_orig"} {
		defs = append(defs, metricDef{"core." + h + "_share", "ratio"})
	}
	defs = append(defs,
		metricDef{"core.calls", "count"},
		metricDef{"bdd.nodes_made", "count"},
		metricDef{"bdd.gc_runs", "count"},
		metricDef{"bdd.cache_hit_ratio", "ratio"},
	)
	for _, op := range []string{"ite", "constrain", "restrict", "disjoint", "match_xor", "match_tsm"} {
		defs = append(defs, metricDef{"bdd.cache_hit_ratio." + op, "ratio"})
	}
	defs = append(defs,
		metricDef{"logic.parse_share", "ratio"},
		metricDef{"network.optimize_share", "ratio"},
		metricDef{"logic.write_share", "ratio"},
		metricDef{"network.rewrites", "count"},
		metricDef{"network.aborts", "count"},
		metricDef{"network.skipped", "count"},
		metricDef{"network.sweeps", "count"},
		metricDef{"serve.handler_self_share", "ratio"},
		metricDef{"serve.queue_share", "ratio"},
		metricDef{"serve.run_share", "ratio"},
		metricDef{"serve.queue_p99_share", "ratio"},
		metricDef{"serve.run_p50_share", "ratio"},
		metricDef{"serve.run_p99_share", "ratio"},
		metricDef{"serve.shard_util", "ratio"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"route.self_share", "ratio"},
		metricDef{"route.attempts_per_req", "1/req"},
		metricDef{"route.backend_share_max", "ratio"},
		metricDef{"problem.parse_share.spec", "ratio"},
		metricDef{"problem.parse_share.blif", "ratio"},
		metricDef{"problem.parse_share.pla", "ratio"},
		metricDef{"client.late_share", "ratio"},
		metricDef{"client.late_p99_share", "ratio"},
		metricDef{"http.residual_share", "ratio"},
		metricDef{"go.gc_cpu_share", "ratio"},
		metricDef{"go.alloc_bytes_per_op", "B/op"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	return defs
}()

// options configure one run.
type options struct {
	seed     int64
	seconds  float64       // batch workloads: measuring budget
	open     time.Duration // serving workloads: open-loop phase
	closed   time.Duration // serving workloads: closed-loop capacity phase
	traced   bool
	traceDir string
	// Smaller inputs for the smoke test; zero values select the workload's own.
	machines    []string
	netMachines []string
	rate        float64
}

// runner is a set-up workload, ready to measure.
type runner interface {
	// measure runs the timed phase, probing core speed with pr, with spans
	// when tr is non-nil.
	measure(o *options, pr *prober, tr *tracer) (*measurement, error)
	close()
}

// measurement is what one timed phase produced.
type measurement struct {
	latMs      []float64 // per-operation latency
	throughput float64   // operations per second
	sloOK      float64   // share of operations correct and within the latency limit
	gc         goCounters
	done       int     // operations run while gc was tracking
	resultSize float64 // size of the results (BDD or network nodes)
	inputSize  float64 // size of the inputs they were made from
	attempted  int
	failed     int
	errs       []string
	calls      int     // table3 calls per pass, cross-checked traced vs untraced
	digest     string  // identity of the inputs, where they depend on the seed
	overhead   float64 // traced over untraced operations, interleaved in one measurement
	layers     map[string]float64
	info       map[string]any
	spans      []span
}

type workload struct {
	name  string
	setup func(*options) (runner, error)
}

var workloads = []workload{
	{"table3", setupTable3},
	{"netopt", setupNetopt},
	{"serve-cold", setupServeCold},
	{"serve-hot", setupServeHot},
}

// A run sets up minSetups times, and more, up to maxSetups, while that
// takes less than setupBudget seconds in all; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2.0
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full outcome.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	Info      map[string]any    `json:"info,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
}

// runOnce sets up and measures one workload in this process.
func runOnce(w workload, o *options) (*result, error) {
	pr := newProber()
	var setups []float64
	var r runner
	for total := 0.0; len(setups) < minSetups || (len(setups) < maxSetups && total < setupBudget); {
		if r != nil {
			r.close()
		}
		before := pr.probe()
		t0 := time.Now()
		var err error
		if r, err = w.setup(o); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d*scale([]float64{before, pr.probe()}))
		total += d
	}
	pr.take() // the measurement scales by its own probes only
	resetPeakRSS()
	stopRSS := sampleRSS()
	m, err := r.measure(o, pr, nil)
	rss := stopRSS()
	peak := peakRSSMiB()
	r.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{
		Workload: w.name, Seed: o.seed, Attempted: m.attempted, Failed: m.failed,
		Info: m.info, Errors: m.errs,
		Metrics: map[string]metric{
			"setup_s":     {quantile(setups, 0.5), "s"},
			"p50_ms":      {quantile(m.latMs, 0.5), "ms"},
			"throughput":  {m.throughput, "op/s"},
			"slo_ok_frac": {m.sloOK, "ratio"},
			"size_ratio":  {m.resultSize / m.inputSize, "ratio"},
			"rss_mb":      {quantile(rss, 0.5), "MiB"},
		},
	}
	res.Info["setups"] = len(setups)
	res.Info["nproc"], res.Info["gomaxprocs"], res.Info["load_conns"] = runtime.NumCPU(), runtime.GOMAXPROCS(0), loadConns
	res.Info["peak_rss_mb"] = peak
	if m.digest != "" {
		res.Info["digest"] = m.digest
	}
	if o.traced {
		r, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		mt, err := r.measure(o, pr, newTracer())
		r.close()
		if err != nil {
			return nil, fmt.Errorf("%s: traced: %w", w.name, err)
		}
		res.Attempted += mt.attempted
		res.Failed += mt.failed
		res.Errors = append(res.Errors, mt.errs...)
		if mt.resultSize != m.resultSize || mt.calls != m.calls || mt.digest != m.digest {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("traced run disagrees: result size %g / %d calls, untraced %g / %d",
				mt.resultSize, mt.calls, m.resultSize, m.calls))
		}
		mt.layers["go.gc_cpu_share"] = ratio(mt.gc.gcCPU, mt.gc.usedCPU)
		mt.layers["go.alloc_bytes_per_op"] = ratio(mt.gc.allocBytes, float64(mt.done))
		mt.layers["trace.overhead_frac"] = mt.overhead
		res.Layers = map[string]metric{}
		for _, d := range perLayer {
			res.Layers[d.name] = metric{mt.layers[d.name], d.unit}
		}
		if err := writeSpans(o.traceDir, w.name, mt.spans); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "table3, netopt, serve-cold, serve-hot or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 adds a traced measurement and reports per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	count := fs.Int("count", 1, "runs per workload, with seeds seed, seed+1, ...")
	out := fs.String("o", "", "write every run and the per-metric summary to this file")
	compare := fs.String("compare", "", "compare medians against this earlier -o file")
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runtime.GOMAXPROCS(0) > loadConns {
		runtime.GOMAXPROCS(loadConns)
	}
	var names []string
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 || *count < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need -workload table3|netopt|serve-cold|serve-hot|all, -count ≥ 1, -trace 0|1\n")
		return 2
	}
	o := &options{
		seed: *seed, seconds: *seconds, traced: *trace == 1, traceDir: *traceDir,
		open:   time.Duration(*seconds * 0.8 * float64(time.Second)),
		closed: time.Duration(*seconds * 0.2 * float64(time.Second)),
	}
	var rep *report
	if len(names) == 1 && *count == 1 {
		res, err := runOnce(workloadByName(names[0]), o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printResult(stdout, res)
		rep = newReport(o, *count, map[string][]*result{res.Workload: {res}})
		line := contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics}
		if o.traced {
			line.Metrics = res.Layers
		}
		writeJSONLine(stdout, line)
	} else {
		var err error
		rep, err = runChildren(stdout, names, o, *count)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	status := 0
	if !rep.correct() {
		status = 1
	}
	if *compare != "" {
		flagged, err := compareReports(stdout, *compare, *spec, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if flagged > 0 {
			status = 1
		}
	}
	if len(names) > 1 || *count > 1 {
		writeJSONLine(stdout, rep.line())
	}
	return status
}

func workloadByName(name string) workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	panic("bench: unknown workload " + name)
}

// contractLine is the last line of a single run's output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeJSONLine(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data always marshals
	}
	fmt.Fprintln(w, string(b))
}

// resultPrefix marks the line carrying a run's full result, which a parent
// process reads back.
const resultPrefix = "bench-result "

// printResult prints each metric on its own line, then the full result.
func printResult(w io.Writer, res *result) {
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, d := range perLayer {
		if m, ok := res.Layers[d.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, d.name, m.Value, d.unit)
		}
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s info %s %v\n", res.Workload, k, res.Info[k])
	}
	fmt.Fprintf(w, "%s attempted %d failed %d correct %v\n", res.Workload, res.Attempted, res.Failed, res.Correct)
	for i, e := range res.Errors {
		if i == 10 {
			fmt.Fprintf(w, "%s error ... %d more\n", res.Workload, len(res.Errors)-i)
			break
		}
		fmt.Fprintf(w, "%s error %s\n", res.Workload, e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s%s\n", resultPrefix, b)
}

// runChildren runs every (workload, seed) pair as a child process of this
// binary and gathers their results.
func runChildren(stdout io.Writer, names []string, o *options, count int) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	runs := map[string][]*result{}
	for _, name := range names {
		for i := 0; i < count; i++ {
			childArgs := []string{
				"-workload", name, "-seed", strconv.FormatInt(o.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(boolInt(o.traced)), "-trace-dir", o.traceDir,
			}
			var buf bytes.Buffer
			cmd := exec.Command(exe, childArgs...)
			cmd.Stdout = &buf
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			res, err := readResult(&buf, stdout)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %v (exit: %v)", name, o.seed+int64(i), err, runErr)
			}
			runs[name] = append(runs[name], res)
		}
	}
	rep := newReport(o, count, runs)
	rep.printSummary(stdout)
	return rep, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// readResult echoes a child's human-readable lines and decodes its result.
func readResult(r io.Reader, echo io.Writer) (*result, error) {
	var res *result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, resultPrefix); ok {
			res = &result{}
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				return nil, err
			}
			continue
		}
		if !strings.HasPrefix(line, "{") {
			fmt.Fprintln(echo, line)
		}
	}
	if res == nil {
		return nil, errors.New("no result")
	}
	return res, sc.Err()
}
