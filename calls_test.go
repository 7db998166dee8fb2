package bddmin_test

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"strings"
	"testing"

	"bddmin/internal/harness"
)

// TestExperimentsCallsPinned reruns four machines of the suite (289
// calls) and requires every per-call size, bound and onset in the
// committed experiments_calls.csv, so a heuristic or lower-bound change
// that moves any result fails here until the file is regenerated. Only
// the runtime (`_us`) columns are left out.
func TestExperimentsCallsPinned(t *testing.T) {
	col, _, err := harness.RunSuite([]string{"s344", "mult16b", "minmax5", "tlc"}, harness.RunConfig{}, 1)
	if err != nil {
		t.Fatal(err)
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
