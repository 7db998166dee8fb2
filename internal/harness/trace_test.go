package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bddmin/internal/obs"
)

// traceRC returns the small-suite run configuration used by the trace
// tests, recording the merged event stream into a fresh buffer.
func traceRC() (RunConfig, *obs.Buffer) {
	buf := &obs.Buffer{}
	rc := RunConfig{Collector: Config{Tracer: buf}}
	return rc, buf
}

// serializeTrace renders a buffered event stream as JSONL without
// timings, the byte-stable form the determinism assertions compare.
func serializeTrace(t *testing.T, buf *obs.Buffer) []byte {
	t.Helper()
	var out bytes.Buffer
	sink := obs.NewJSONL(&out)
	buf.ReplayTo(sink)
	if err := sink.Err(); err != nil {
		t.Fatalf("serializing trace: %v", err)
	}
	return out.Bytes()
}

// The suite runner must merge per-worker trace buffers in request order:
// the merged stream is byte-identical (modulo durations, which the
// serialization omits) to a one-worker run's, for every worker count.
// This is the contract documented on RunSuite.
func TestParallelTraceMergeDeterministic(t *testing.T) {
	rcSeq, bufSeq := traceRC()
	if _, _, err := RunSuite(parallelNames, rcSeq, 1); err != nil {
		t.Fatalf("one-worker suite: %v", err)
	}
	want := serializeTrace(t, bufSeq)
	if len(want) == 0 {
		t.Fatal("one-worker run emitted no trace events")
	}

	for _, workers := range []int{2, 3} {
		rc, buf := traceRC()
		if _, _, err := RunSuite(parallelNames, rc, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := serializeTrace(t, buf)
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: merged trace differs from one-worker run (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// A nil tracer must stay nil through the suite runner (no buffers, no
// replay) — the zero-overhead default.
func TestParallelNoTracer(t *testing.T) {
	col, _, err := RunSuite(parallelNames[:1], RunConfig{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if col.Tracer() != nil {
		t.Error("merged collector grew a tracer from nothing")
	}
}

// TraceDir writes one valid JSONL file per benchmark, bracketed by
// benchmark start/end events, independent of any configured tracer.
func TestTraceDirWritesPerBenchmarkFiles(t *testing.T) {
	dir := t.TempDir()
	rc := RunConfig{TraceDir: dir}
	if _, _, err := RunSuite(parallelNames, rc, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range parallelNames {
		path := filepath.Join(dir, name+".trace.jsonl")
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("missing trace file: %v", err)
		}
		lines, err := obs.ValidateJSONL(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: invalid trace: %v", name, err)
		}
		if lines < 2 {
			t.Errorf("%s: want at least start/end events, got %d lines", name, lines)
		}
	}
}

// TraceDir stacks on top of a configured tracer rather than replacing
// it, and the collector's tracer is restored after each benchmark.
func TestTraceDirStacksOnTracer(t *testing.T) {
	buf := &obs.Buffer{}
	rc := RunConfig{
		Collector: Config{Tracer: buf},
		TraceDir:  t.TempDir(),
	}
	col, _, err := RunSuite(parallelNames[:1], rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf.Events) == 0 {
		t.Error("configured tracer received no events alongside TraceDir")
	}
	if col.Tracer() != obs.Tracer(buf) {
		t.Error("collector tracer not restored after benchmark run")
	}
}
