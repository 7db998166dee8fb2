package harness

import (
	"strings"
	"sync"
	"testing"
)

var parallelNames = []string{"tlc", "minmax5", "tbk"}

func TestParallelMatchesSequential(t *testing.T) {
	var rc RunConfig
	seqCol, seqRuns, err := RunSuite(parallelNames, rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	parCol, parRuns, err := RunSuite(parallelNames, rc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parRuns) != len(seqRuns) {
		t.Fatalf("run counts differ: %d vs %d", len(parRuns), len(seqRuns))
	}
	for i := range seqRuns {
		if parRuns[i].Name != seqRuns[i].Name || parRuns[i].Calls != seqRuns[i].Calls {
			t.Fatalf("run %d differs: %+v vs %+v", i, parRuns[i], seqRuns[i])
		}
	}
	if len(parCol.Records) != len(seqCol.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(parCol.Records), len(seqCol.Records))
	}
	if parCol.FilteredTrivial != seqCol.FilteredTrivial {
		t.Fatal("filter counters differ")
	}
	for i := range seqCol.Records {
		rs, rp := seqCol.Records[i], parCol.Records[i]
		if rs.Benchmark != rp.Benchmark || rs.Iteration != rp.Iteration ||
			rs.FOrigSize != rp.FOrigSize || rs.MinSize != rp.MinSize ||
			rs.LowerBound != rp.LowerBound || rs.COnsetPct != rp.COnsetPct {
			t.Fatalf("record %d differs: %+v vs %+v", i, rp, rs)
		}
		for name, res := range rs.Results {
			if rp.Results[name].Size != res.Size {
				t.Fatalf("record %d heuristic %s size differs", i, name)
			}
		}
	}
}

func TestParallelDeterministicAcrossRuns(t *testing.T) {
	var rc RunConfig
	run := func(workers int) *Collector {
		col, _, err := RunSuite(parallelNames, rc, workers)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	a, b := run(2), run(3)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ across worker counts: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].Benchmark != b.Records[i].Benchmark ||
			a.Records[i].MinSize != b.Records[i].MinSize {
			t.Fatalf("record %d differs across worker counts", i)
		}
	}
}

func TestParallelWorkerClamping(t *testing.T) {
	// More workers than benchmarks and the GOMAXPROCS default both work.
	for _, w := range []int{16, 0} {
		_, runs, err := RunSuite([]string{"tlc"}, RunConfig{}, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || runs[0].Name != "tlc" {
			t.Fatalf("workers=%d: runs = %+v", w, runs)
		}
	}
}

func TestParallelRejectsUnknownBenchmark(t *testing.T) {
	_, _, err := RunSuite([]string{"tlc", "nope"}, RunConfig{}, 2)
	if err == nil {
		t.Fatal("unknown benchmark must error before spawning work")
	}
}

func TestParallelProgressLines(t *testing.T) {
	var sb strings.Builder
	mu := &syncWriter{w: &sb}
	_, _, err := RunSuite([]string{"tlc", "tbk"}, RunConfig{Progress: mu}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"tlc", "tbk", "minimize calls recorded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
}

// syncWriter adapts a strings.Builder for concurrent Progress writes; the
// runner serializes whole lines itself, this only guards the buffer.
type syncWriter struct {
	mu sync.Mutex
	w  *strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
