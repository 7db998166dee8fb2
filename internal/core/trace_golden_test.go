package core_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
	"bddmin/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenSpec is a fixed 6-variable instance (64 leaves) with scattered
// don't cares, rich enough to make the scheduler open three windows,
// apply sibling matches under both criteria, and run level matching.
const goldenSpec = "d1011d01" + "10d0011d" + "0d11d010" + "110100dd" +
	"01d1101d" + "d0100d11" + "1d01110d" + "00dd1011"

// traceGoldenRun produces the canonical trace: every Table 2 heuristic
// through the Traced wrapper, then a fully traced scheduler run with level
// matching enabled, all into one timings-free JSONL stream.
func traceGoldenRun(sink obs.Tracer) {
	m := bdd.New(6)
	in := core.MustParseSpec(m, goldenSpec)
	for _, h := range core.Registry() {
		core.Traced(h, sink).Minimize(m, in.F, in.C)
	}
	s := &core.Scheduler{WindowSize: 2, Trace: sink}
	s.Minimize(m, in.F, in.C)
}

// The trace of a fixed instance is part of the observable contract: with
// timings off it must be byte-identical across runs and across machines
// (BDD sizes are canonical, the schedule is deterministic). The golden
// file pins the full event stream; regenerate with `go test -run
// TestTraceGolden -update ./internal/core/` after an intentional schema
// or schedule change.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	traceGoldenRun(sink)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("testdata", "trace_golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from %s (rerun with -update if the change is intentional)\ngot %d bytes, want %d",
			goldenPath, buf.Len(), len(want))
	}

	// The stream must be replayable: every line valid JSON with a known
	// event kind.
	n, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("golden run emitted no events")
	}
}

// Two back-to-back runs on fresh managers must agree byte for byte — the
// determinism claim the golden file relies on, checked without touching
// the file so it also guards -update runs.
func TestTraceDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		traceGoldenRun(sink)
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different traces")
	}
}

// The scheduler's traced and untraced paths must compute the same cover —
// tracing is observation, never behavior.
func TestTracedSchedulerMatchesUntraced(t *testing.T) {
	size := func(tr obs.Tracer) int {
		m := bdd.New(6)
		in := core.MustParseSpec(m, goldenSpec)
		s := &core.Scheduler{WindowSize: 2, Trace: tr}
		return m.Size(s.Minimize(m, in.F, in.C))
	}
	var buf obs.Buffer
	if traced, plain := size(&buf), size(nil); traced != plain {
		t.Fatalf("traced scheduler returned size %d, untraced %d", traced, plain)
	}
	if len(buf.Events) == 0 {
		t.Fatal("traced run emitted no events")
	}
}

func TestCriterionName(t *testing.T) {
	cases := map[string]string{
		"const": "osdm", "restr": "osdm",
		"osm_bt": "osm", "osm_td": "osm",
		"tsm_cp": "tsm", "opt_lv": "tsm",
		"sched_w4_s0": "", "robust": "", "f_orig": "",
	}
	for name, want := range cases {
		if got := core.CriterionName(name); got != want {
			t.Errorf("CriterionName(%q) = %q, want %q", name, got, want)
		}
	}
}
