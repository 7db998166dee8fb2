package bddmin_test

import (
	"bytes"
	"encoding/csv"
	"io"
	"maps"
	"os"
	"strings"
	"testing"

	"bddmin/internal/harness"
	"bddmin/internal/obs"
)

// TestExperimentsCallsPinned reruns four machines of the suite (289
// calls) and requires every per-call size, bound and onset in the
// committed experiments_calls.csv, so a heuristic or lower-bound change
// that moves any result fails here until the file is regenerated. Only
// the runtime (`_us`) columns are left out. It also pins each machine's
// NodesMade from its closing gc event, so that work the heuristics add
// without changing a result (such as care nodes no caller reads) fails
// here too.
func TestExperimentsCallsPinned(t *testing.T) {
	var trace obs.Buffer
	rc := harness.RunConfig{Collector: harness.Config{Tracer: &trace}}
	col, _, err := harness.RunSuite([]string{"s344", "mult16b", "minmax5", "tlc"}, rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	made := map[string]uint64{}
	for _, ev := range trace.Events {
		if gc, ok := ev.(obs.GCEvent); ok {
			made[gc.Benchmark] = gc.NodesMade
		}
	}
	if want := map[string]uint64{"s344": 199488, "mult16b": 100855, "minmax5": 44633, "tlc": 1508}; !maps.Equal(made, want) {
		t.Errorf("nodes made %v, want %v", made, want)
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
	if len(got) != 289 {
		t.Fatalf("rerun has %d calls, want 289", len(got))
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
