package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMultiNilHandling(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	b := &Buffer{}
	if got := Multi(nil, b, nil); got != Tracer(b) {
		t.Fatal("Multi with one live tracer should return it unwrapped")
	}
	b2 := &Buffer{}
	m := Multi(b, b2)
	m.Emit(WindowEvent{Phase: "open"})
	if len(b.Events) != 1 || len(b2.Events) != 1 {
		t.Fatalf("fan-out failed: %d / %d events", len(b.Events), len(b2.Events))
	}
}

func TestBufferCopiesCacheOps(t *testing.T) {
	ops := []CacheOpStats{{Op: "ite", Hits: 1}}
	b := &Buffer{}
	b.Emit(CacheEvent{Scope: "x", Ops: ops})
	ops[0].Hits = 99
	got := b.Events[0].(CacheEvent)
	if got.Ops[0].Hits != 1 {
		t.Fatal("Buffer must deep-copy CacheEvent.Ops")
	}
}

func TestBufferReplayOrder(t *testing.T) {
	b := &Buffer{}
	b.Emit(BenchmarkEvent{Name: "a", Phase: "start"})
	b.Emit(BenchmarkEvent{Name: "a", Phase: "end"})
	var sink Buffer
	b.ReplayTo(&sink)
	if len(sink.Events) != 2 || sink.Events[0].(BenchmarkEvent).Phase != "start" {
		t.Fatalf("replay broke ordering: %+v", sink.Events)
	}
	b.ReplayTo(nil) // must not panic
}

func TestMetricsAggregation(t *testing.T) {
	var m Metrics
	m.Emit(HeuristicEvent{Name: "osm_bt", InSize: 10, OutSize: 7, Accepted: true, Duration: time.Millisecond})
	m.Emit(HeuristicEvent{Name: "osm_bt", InSize: 5, OutSize: 5, Accepted: true})
	m.Emit(HeuristicEvent{Name: "const", InSize: 5, OutSize: 8})
	m.Emit(WindowEvent{Phase: "open"})
	m.Emit(WindowEvent{Phase: "close"})
	m.Emit(LevelMatchEvent{Level: 1})
	m.Emit(CacheEvent{Ops: []CacheOpStats{{Op: "ite", Hits: 3, Misses: 1}}})

	table := m.Table()
	if len(table) != 2 || table[0].Name != "osm_bt" || table[1].Name != "const" {
		t.Fatalf("table order wrong: %+v", table)
	}
	bt := table[0]
	if bt.Applications != 2 || bt.Accepted != 2 || bt.Wins != 1 || bt.NodesSaved != 3 || bt.Time != time.Millisecond {
		t.Fatalf("osm_bt metrics wrong: %+v", bt)
	}
	c := table[1]
	if c.Applications != 1 || c.Accepted != 0 || c.Wins != 0 || c.NodesSaved != 0 {
		t.Fatalf("const metrics wrong: %+v", c)
	}
	if m.Windows != 1 || m.LevelMatches != 1 || m.CacheHits != 3 || m.CacheMisses != 1 {
		t.Fatalf("totals wrong: %+v", m)
	}

	var buf bytes.Buffer
	m.Format(&buf)
	out := buf.String()
	for _, want := range []string{"osm_bt", "const", "nodes-saved", "windows: 1", "hit rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

// TestJSONLAllEventKinds pins the JSONL bytes of every event kind: key
// names, key order and the keys omitempty drops. Each kind appears with
// every field set and as its zero value; "ns" appears only with Timings on.
func TestJSONLAllEventKinds(t *testing.T) {
	const d = 1500 * time.Nanosecond
	// Buffer copies an empty Ops slice to nil; "ops" must stay an array.
	var replayed Buffer
	replayed.Emit(CacheEvent{Scope: "const", Ops: []CacheOpStats{}})
	cases := []struct {
		ev   Event
		want string // with Timings on; off drops `,"ns":1500`
	}{
		{WindowEvent{Phase: "open", Lo: 1, Hi: 3, FSize: 10, CSize: 4},
			`{"ev":"window","phase":"open","lo":1,"hi":3,"f_size":10,"c_size":4}`},
		{WindowEvent{}, `{"ev":"window","phase":"","lo":0,"hi":0,"f_size":0,"c_size":0}`},
		{HeuristicEvent{Name: "osm_bt", Criterion: "osm", Benchmark: "tlc", Call: 2, InSize: 10, OutSize: 7, Matches: 2, Accepted: true, Duration: d},
			`{"ev":"heuristic","name":"osm_bt","criterion":"osm","benchmark":"tlc","call":2,"in_size":10,"out_size":7,"matches":2,"accepted":true,"ns":1500}`},
		{HeuristicEvent{}, `{"ev":"heuristic","name":"","in_size":0,"out_size":0,"matches":0,"accepted":false}`},
		{LevelMatchEvent{Level: 2, Criterion: "tsm", Pairs: 5, Edges: 4, Cliques: 2, Replaced: 3, Pruned: 6, Aborted: true, Duration: d},
			`{"ev":"levelmatch","level":2,"criterion":"tsm","pairs":5,"edges":4,"cliques":2,"replaced":3,"pruned":6,"aborted":true,"ns":1500}`},
		{LevelMatchEvent{}, `{"ev":"levelmatch","level":0,"criterion":"","pairs":0,"edges":0,"cliques":0,"replaced":0,"pruned":0}`},
		{CacheEvent{Benchmark: "tlc", Call: 2, Scope: "osm_bt", Ops: []CacheOpStats{{Op: "ite", Hits: 1, Misses: 2, Evictions: 3}}},
			`{"ev":"cache","benchmark":"tlc","call":2,"scope":"osm_bt","ops":[{"op":"ite","hits":1,"misses":2,"evictions":3}]}`},
		{CacheEvent{}, `{"ev":"cache","ops":[]}`},
		{replayed.Events[0], `{"ev":"cache","scope":"const","ops":[]}`},
		{GCEvent{Benchmark: "tlc", Live: 100, Runs: 2, NodesMade: 500},
			`{"ev":"gc","benchmark":"tlc","live":100,"runs":2,"nodes_made":500}`},
		{GCEvent{}, `{"ev":"gc","live":0,"runs":0,"nodes_made":0}`},
		{BenchmarkEvent{Name: "tlc", Phase: "start"}, `{"ev":"benchmark","name":"tlc","phase":"start"}`},
		{BenchmarkEvent{}, `{"ev":"benchmark","name":"","phase":""}`},
		{CallEvent{Benchmark: "tlc", Call: 1, COnsetPct: 3.5, FSize: 42},
			`{"ev":"call","benchmark":"tlc","call":1,"c_onset_pct":3.5,"f_size":42}`},
		{CallEvent{}, `{"ev":"call","call":0,"c_onset_pct":0,"f_size":0}`},
		{AbortEvent{Benchmark: "tlc", Name: "opt_lv", Reason: "deadline", Phase: "level 3", BestSize: 12},
			`{"ev":"abort","benchmark":"tlc","name":"opt_lv","reason":"deadline","phase":"level 3","best_size":12}`},
		{AbortEvent{}, `{"ev":"abort","reason":"","best_size":0}`},
		{ServeEvent{Phase: "finished", ID: 7, Shard: 1, Format: "pla", Heuristic: "osm_bt", Queue: 2, Status: 200, Reason: "deadline", Duration: d},
			`{"ev":"serve","phase":"finished","id":7,"shard":1,"format":"pla","heuristic":"osm_bt","queue":2,"status":200,"reason":"deadline","ns":1500}`},
		{ServeEvent{}, `{"ev":"serve","phase":"","id":0,"shard":0}`},
		{RouteEvent{Phase: "failover", Backend: "http://b1", Key: 42, Attempt: 2, Status: 503, Reason: "drain-503", Duration: d},
			`{"ev":"route","phase":"failover","backend":"http://b1","key":42,"attempt":2,"status":503,"reason":"drain-503","ns":1500}`},
		{RouteEvent{}, `{"ev":"route","phase":""}`},
		{NetworkEvent{Phase: "node", Node: "n1", Sweep: 1, WindowInputs: 3, InSize: 5, OutSize: 4, Cost: 9, Nodes: 6, Rewrites: 1, Accepted: true, Aborted: true, Duration: d},
			`{"ev":"network","phase":"node","node":"n1","sweep":1,"window_inputs":3,"in_size":5,"out_size":4,"cost":9,"nodes":6,"rewrites":1,"accepted":true,"aborted":true,"ns":1500}`},
		{NetworkEvent{}, `{"ev":"network","phase":""}`},
	}
	kinds := map[string]bool{}
	for _, timings := range []bool{false, true} {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		sink.Timings = timings
		for _, c := range cases {
			sink.Emit(c.ev)
			kinds[c.ev.Kind()] = true
		}
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines) != len(cases) {
			t.Fatalf("timings=%v: %d lines for %d events", timings, len(lines), len(cases))
		}
		for i, c := range cases {
			want := c.want
			if !timings {
				want = strings.Replace(want, `,"ns":1500`, "", 1)
			}
			if lines[i] != want {
				t.Errorf("timings=%v, %T:\n got %s\nwant %s", timings, c.ev, lines[i], want)
			}
		}
	}
	if len(kinds) != len(knownKinds) {
		t.Fatalf("cases cover %d event kinds, the schema has %d", len(kinds), len(knownKinds))
	}
}

func TestJSONLTimings(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	sink.Timings = true
	sink.Emit(HeuristicEvent{Name: "x", Duration: 1500 * time.Nanosecond})
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["ns"] != float64(1500) {
		t.Fatalf("ns = %v, want 1500", obj["ns"])
	}
}

// ValidateJSONL must accept the server's request-lifecycle events, and
// empty optional fields must be omitted from the wire form (the PR 4
// omitempty convention that keeps pre-serve golden traces byte-identical).
func TestJSONLServeEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	sink.Emit(ServeEvent{Phase: "accepted", ID: 1, Shard: -1, Format: "spec", Queue: 3})
	sink.Emit(ServeEvent{Phase: "rejected", ID: 2, Shard: -1, Status: 429, Reason: "queue full"})
	sink.Emit(ServeEvent{Phase: "degraded", ID: 1, Shard: 0, Reason: "deadline"})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 3 {
		t.Fatalf("ValidateJSONL: n=%d err=%v", n, err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	for _, absent := range []string{"status", "reason", "heuristic", "ns"} {
		if strings.Contains(first, "\""+absent+"\"") {
			t.Fatalf("accepted event carries empty field %q: %s", absent, first)
		}
	}
	if !strings.Contains(first, "\"shard\":-1") {
		t.Fatalf("unplaced event must keep shard -1: %s", first)
	}
}

// Two identical runs must produce byte-identical traces when timings are
// off, even if durations differ.
func TestJSONLDeterministicWithoutTimings(t *testing.T) {
	run := func(d time.Duration) string {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		sink.Emit(HeuristicEvent{Name: "osm_bt", InSize: 9, OutSize: 4, Accepted: true, Duration: d})
		sink.Emit(WindowEvent{Phase: "close", Lo: 0, Hi: 3, FSize: 4, CSize: 1})
		return buf.String()
	}
	if run(time.Millisecond) != run(time.Hour) {
		t.Fatal("trace depends on durations with Timings off")
	}
}

// RunOrdered replays each job's trace in index order whatever order the
// jobs finish in, and re-raises job 3's panic on the caller's goroutine
// only after every job has returned and the traces of jobs 0…2 have been
// replayed.
func TestRunOrderedReplaysInOrderAndReraisesPanics(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for crash, want := range map[any]string{nil: "0 1 2 3 4 5", 3: "0 1 2"} {
			var buf Buffer
			var returned atomic.Int32
			got := func() (r any) {
				defer func() { r = recover() }()
				RunOrdered(6, workers, &buf, func(i int, tr Tracer) {
					defer returned.Add(1)
					time.Sleep(time.Duration(6-i) * time.Millisecond) // later jobs finish first
					tr.Emit(BenchmarkEvent{Name: strconv.Itoa(i)})
					if any(i) == crash {
						panic(i)
					}
				})
				return nil
			}()
			var names []string
			for _, ev := range buf.Events {
				names = append(names, ev.(BenchmarkEvent).Name)
			}
			if got != crash || returned.Load() != 6 || strings.Join(names, " ") != want {
				t.Errorf("workers %d, crash %v: recovered %v after %d jobs returned, replayed %v",
					workers, crash, got, returned.Load(), names)
			}
		}
	}
	RunOrdered(3, 2, nil, func(i int, tr Tracer) {
		if tr != nil {
			t.Errorf("job %d got a tracer without one to replay into", i)
		}
	})
}

// A trace file's Close reports a write that failed because the device is
// full.
func TestCreateJSONLCloseReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	s, err := CreateJSONL("/dev/full", false)
	if err != nil {
		t.Fatal(err)
	}
	s.Emit(BenchmarkEvent{Name: "tlc", Phase: "start"})
	if err := s.Close(); err == nil {
		t.Fatal("Close on /dev/full reported no error")
	}
}
