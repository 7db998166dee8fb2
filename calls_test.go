package bddmin_test

import (
	"bytes"
	"encoding/csv"
	"flag"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"bddmin/internal/circuits"
	"bddmin/internal/harness"
	"bddmin/internal/obs"
)

var fullCalls = flag.Bool("full", false, "rerun all 15 suite machines against experiments_calls.csv")

// TestExperimentsCallsPinned reruns four machines of the suite (289
// calls) and requires every per-call size, bound and onset in the
// committed experiments_calls.csv, so a heuristic or lower-bound change
// that moves any result fails here until the file is regenerated. Only
// the runtime (`_us`) columns are left out. It also pins each machine's
// NodesMade from its closing gc event, so that work the heuristics add
// without changing a result (such as care nodes no caller reads) fails
// here too. With -full it reruns all 15 machines (GOMAXPROCS workers)
// and requires every row of the file:
//
//	go test -run TestExperimentsCallsPinned -full .
func TestExperimentsCallsPinned(t *testing.T) {
	names, workers := []string{"s344", "mult16b", "minmax5", "tlc"}, 1
	if *fullCalls {
		names, workers = circuits.Names(), runtime.GOMAXPROCS(0)
	}
	var trace obs.Buffer
	rc := harness.RunConfig{Collector: harness.Config{Tracer: &trace}}
	col, _, err := harness.RunSuite(names, rc, workers)
	if err != nil {
		t.Fatal(err)
	}
	made := map[string]uint64{}
	for _, ev := range trace.Events {
		if gc, ok := ev.(obs.GCEvent); ok {
			made[gc.Benchmark] = gc.NodesMade
		}
	}
	for name, want := range map[string]uint64{"s344": 196138, "mult16b": 99304, "minmax5": 44852, "tlc": 1482} {
		if made[name] != want {
			t.Errorf("%s: nodes made %d, want %d", name, made[name], want)
		}
	}
	var buf bytes.Buffer
	if err := harness.WriteCSV(&buf, col.Records, col.HeuristicNames()); err != nil {
		t.Fatal(err)
	}
	got := readCalls(t, "rerun", &buf)
	f, err := os.Open("experiments_calls.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := readCalls(t, "experiments_calls.csv", f)
	calls := 289
	if *fullCalls {
		calls = len(want)
	}
	if len(got) != calls {
		t.Fatalf("rerun has %d calls, want %d", len(got), calls)
	}
	for key, row := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("call %s is not in experiments_calls.csv", key)
		} else if row != w {
			t.Errorf("call %s:\n got %s\nwant %s", key, row, w)
		}
	}
}

// readCalls maps each "benchmark/call" key of a per-call CSV to the
// row's columns whose names do not end in _us, as name=value pairs.
func readCalls(t *testing.T, name string, r io.Reader) map[string]string {
	t.Helper()
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil || len(rows) == 0 {
		t.Fatalf("%s: %v (%d rows)", name, err, len(rows))
	}
	out := make(map[string]string, len(rows)-1)
	for _, row := range rows[1:] {
		var kept []string
		for i, h := range rows[0] {
			if !strings.HasSuffix(h, "_us") {
				kept = append(kept, h+"="+row[i])
			}
		}
		out[row[0]+"/"+row[1]] = strings.Join(kept, " ")
	}
	return out
}
