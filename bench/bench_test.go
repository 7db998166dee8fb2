package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeOptions shrinks every workload: table3 on tlc and tbk, netopt on
// tlc, an open loop of 1 s at 50 requests per second and a closed loop of
// 0.2 s.
func smokeOptions(t *testing.T, seed int64) *options {
	return &options{
		seed: seed, seconds: 0.01, open: time.Second, closed: 200 * time.Millisecond,
		traced: true, traceDir: t.TempDir(),
		machines: []string{"tlc", "tbk"}, netMachines: []string{"tlc"}, rate: 50,
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program runs and emits.
func TestBenchmarkJSON(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, bench runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, bench emits %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], bench %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// timeSplit lists the per-layer shares that together make up a
// workload's time: self times of the batch layers, and the parts of the
// serving latency from lateness to shard run.
func timeSplit(workload string) []string {
	switch workload {
	case "table3":
		split := []string{"fsm.self_share", "harness.record_self_share"}
		for _, d := range perLayer {
			if strings.HasPrefix(d.name, "core.") && strings.HasSuffix(d.name, "_share") {
				split = append(split, d.name)
			}
		}
		return split
	case "netopt":
		return []string{"logic.parse_share", "network.optimize_share", "logic.write_share"}
	}
	return []string{"client.late_share", "http.residual_share", "route.self_share",
		"serve.handler_self_share", "serve.queue_share", "serve.run_share"}
}

// TestSmoke runs every workload traced at toy size: nothing may fail
// (which includes the traced run reproducing the untraced run's request
// stream and result sizes), every metric must be emitted with its unit,
// every span tree must account for its root, and the layer shares must
// account for the workload's time, all within 5%.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			o := smokeOptions(t, 1)
			res, err := runOnce(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("end-to-end %s: %+v", d.name, m)
				}
			}
			for _, d := range perLayer {
				if m, ok := res.Layers[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("per-layer %s: %+v", d.name, m)
				}
			}
			sum := 0.0
			for _, name := range timeSplit(w.name) {
				sum += res.Layers[name].Value
			}
			if math.Abs(sum-1) > 0.05 {
				t.Errorf("layer shares %v sum to %.3f", timeSplit(w.name), sum)
			}
			checkSpans(t, filepath.Join(o.traceDir, w.name+".trace.jsonl"))
		})
	}
}

// checkSpans reads a span file and checks that under every root the self
// times of the subtree add up to the root's duration within 5%, and that no
// child outlasts its parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	root := make([]int, len(spans)+1) // span id → root id
	self := map[int]int64{}           // root id → Σ self time of its tree
	for _, s := range spans {
		root[s.ID] = s.ID
		if s.Parent != 0 {
			root[s.ID] = root[s.Parent]
			p := spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %d (%s) [%d, %d] outside its parent %d (%s) [%d, %d]",
					s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
			self[root[s.ID]] -= s.dur()
		}
		self[root[s.ID]] += s.dur()
	}
	for id, sum := range self {
		if d := spans[id-1].dur(); math.Abs(float64(sum-d)) > 0.05*float64(d) {
			t.Errorf("root %d (%s): self times sum to %d ns, root lasts %d ns", id, spans[id-1].Name, sum, d)
		}
	}
}

// TestStreamSeeds checks that the serving request streams are a function
// of the seed alone.
func TestStreamSeeds(t *testing.T) {
	for _, hot := range []bool{false, true} {
		digest := func(seed int64) string {
			s, err := newStream(smokeOptions(t, seed), hot, 50)
			if err != nil {
				t.Fatal(err)
			}
			return s.digest
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("hot %v: seed 1 gave streams %s and %s", hot, a, b)
		}
		if a, b := digest(1), digest(2); a == b {
			t.Errorf("hot %v: seeds 1 and 2 gave the same stream", hot)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
