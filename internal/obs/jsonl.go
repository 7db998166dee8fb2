package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSONL writes one JSON object per event, one event per line — the
// structured trace format behind `bddmin -trace-out` and the harness's
// per-benchmark trace files. The wire schema is documented in
// docs/ARCHITECTURE.md; every object carries an "ev" discriminator equal
// to the event's Kind.
//
// With Timings false (the default) duration fields are omitted, making the
// trace of a deterministic run byte-identical across executions — the
// property the golden-trace and merge-determinism tests pin down. Set
// Timings true for diagnostic traces that keep nanosecond timings.
type JSONL struct {
	// Timings includes per-event durations ("ns" fields) when true.
	Timings bool

	w   io.Writer
	err error
}

// NewJSONL returns a sink writing to w. The caller owns buffering and
// closing of w; call Err after the run to observe a deferred write error.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Err returns the first write or marshal error encountered, if any. After
// an error the sink drops subsequent events.
func (s *JSONL) Err() error { return s.err }

// Wire structs fix the field order and names of the trace schema. Numeric
// sizes are emitted unconditionally (a 0 node count is meaningful);
// context fields (benchmark, call) are omitted when empty.
type (
	wireWindow struct {
		Ev    string `json:"ev"`
		Phase string `json:"phase"`
		Lo    int    `json:"lo"`
		Hi    int    `json:"hi"`
		FSize int    `json:"f_size"`
		CSize int    `json:"c_size"`
	}
	wireHeuristic struct {
		Ev        string `json:"ev"`
		Name      string `json:"name"`
		Criterion string `json:"criterion,omitempty"`
		Benchmark string `json:"benchmark,omitempty"`
		Call      int    `json:"call,omitempty"`
		InSize    int    `json:"in_size"`
		OutSize   int    `json:"out_size"`
		Matches   int    `json:"matches"`
		Accepted  bool   `json:"accepted"`
		Ns        int64  `json:"ns,omitempty"`
	}
	wireLevelMatch struct {
		Ev        string `json:"ev"`
		Level     int    `json:"level"`
		Criterion string `json:"criterion"`
		Pairs     int    `json:"pairs"`
		Edges     int    `json:"edges"`
		Cliques   int    `json:"cliques"`
		Replaced  int    `json:"replaced"`
		Pruned    int    `json:"pruned"`
		Aborted   bool   `json:"aborted,omitempty"`
		Ns        int64  `json:"ns,omitempty"`
	}
	wireCacheOp struct {
		Op        string `json:"op"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	}
	wireCache struct {
		Ev        string        `json:"ev"`
		Benchmark string        `json:"benchmark,omitempty"`
		Call      int           `json:"call,omitempty"`
		Scope     string        `json:"scope,omitempty"`
		Ops       []wireCacheOp `json:"ops"`
	}
	wireGC struct {
		Ev        string `json:"ev"`
		Benchmark string `json:"benchmark,omitempty"`
		Live      int    `json:"live"`
		Runs      int    `json:"runs"`
		NodesMade uint64 `json:"nodes_made"`
	}
	wireBenchmark struct {
		Ev    string `json:"ev"`
		Name  string `json:"name"`
		Phase string `json:"phase"`
	}
	wireCall struct {
		Ev        string  `json:"ev"`
		Benchmark string  `json:"benchmark,omitempty"`
		Call      int     `json:"call"`
		COnsetPct float64 `json:"c_onset_pct"`
		FSize     int     `json:"f_size"`
	}
	wireServe struct {
		Ev        string `json:"ev"`
		Phase     string `json:"phase"`
		ID        uint64 `json:"id"`
		Shard     int    `json:"shard"` // -1 before placement on a worker
		Format    string `json:"format,omitempty"`
		Heuristic string `json:"heuristic,omitempty"`
		Queue     int    `json:"queue,omitempty"`
		Status    int    `json:"status,omitempty"`
		Reason    string `json:"reason,omitempty"`
		Ns        int64  `json:"ns,omitempty"`
	}
	wireRoute struct {
		Ev      string `json:"ev"`
		Phase   string `json:"phase"`
		Backend string `json:"backend,omitempty"`
		Key     uint64 `json:"key,omitempty"`
		Attempt int    `json:"attempt,omitempty"`
		Status  int    `json:"status,omitempty"`
		Reason  string `json:"reason,omitempty"`
		Ns      int64  `json:"ns,omitempty"`
	}
	wireNetwork struct {
		Ev           string `json:"ev"`
		Phase        string `json:"phase"`
		Node         string `json:"node,omitempty"`
		Sweep        int    `json:"sweep,omitempty"`
		WindowInputs int    `json:"window_inputs,omitempty"`
		InSize       int    `json:"in_size,omitempty"`
		OutSize      int    `json:"out_size,omitempty"`
		Cost         int    `json:"cost,omitempty"`
		Nodes        int    `json:"nodes,omitempty"`
		Rewrites     int    `json:"rewrites,omitempty"`
		Accepted     bool   `json:"accepted,omitempty"`
		Aborted      bool   `json:"aborted,omitempty"`
		Ns           int64  `json:"ns,omitempty"`
	}
	wireAbort struct {
		Ev        string `json:"ev"`
		Benchmark string `json:"benchmark,omitempty"`
		Name      string `json:"name,omitempty"`
		Reason    string `json:"reason"`
		Phase     string `json:"phase,omitempty"`
		BestSize  int    `json:"best_size"`
	}
)

// Emit implements Tracer.
func (s *JSONL) Emit(ev Event) {
	if s.err != nil {
		return
	}
	var payload any
	switch e := ev.(type) {
	case WindowEvent:
		payload = wireWindow{Ev: e.Kind(), Phase: e.Phase, Lo: e.Lo, Hi: e.Hi, FSize: e.FSize, CSize: e.CSize}
	case HeuristicEvent:
		w := wireHeuristic{
			Ev: e.Kind(), Name: e.Name, Criterion: e.Criterion,
			Benchmark: e.Benchmark, Call: e.Call,
			InSize: e.InSize, OutSize: e.OutSize, Matches: e.Matches, Accepted: e.Accepted,
		}
		if s.Timings {
			w.Ns = e.Duration.Nanoseconds()
		}
		payload = w
	case LevelMatchEvent:
		w := wireLevelMatch{
			Ev: e.Kind(), Level: e.Level, Criterion: e.Criterion,
			Pairs: e.Pairs, Edges: e.Edges, Cliques: e.Cliques,
			Replaced: e.Replaced, Pruned: e.Pruned, Aborted: e.Aborted,
		}
		if s.Timings {
			w.Ns = e.Duration.Nanoseconds()
		}
		payload = w
	case CacheEvent:
		ops := make([]wireCacheOp, len(e.Ops))
		for i, op := range e.Ops {
			ops[i] = wireCacheOp{Op: op.Op, Hits: op.Hits, Misses: op.Misses, Evictions: op.Evictions}
		}
		payload = wireCache{Ev: e.Kind(), Benchmark: e.Benchmark, Call: e.Call, Scope: e.Scope, Ops: ops}
	case GCEvent:
		payload = wireGC{Ev: e.Kind(), Benchmark: e.Benchmark, Live: e.Live, Runs: e.Runs, NodesMade: e.NodesMade}
	case BenchmarkEvent:
		payload = wireBenchmark{Ev: e.Kind(), Name: e.Name, Phase: e.Phase}
	case CallEvent:
		payload = wireCall{Ev: e.Kind(), Benchmark: e.Benchmark, Call: e.Call, COnsetPct: e.COnsetPct, FSize: e.FSize}
	case AbortEvent:
		payload = wireAbort{Ev: e.Kind(), Benchmark: e.Benchmark, Name: e.Name, Reason: e.Reason, Phase: e.Phase, BestSize: e.BestSize}
	case ServeEvent:
		w := wireServe{
			Ev: e.Kind(), Phase: e.Phase, ID: e.ID, Shard: e.Shard,
			Format: e.Format, Heuristic: e.Heuristic, Queue: e.Queue,
			Status: e.Status, Reason: e.Reason,
		}
		if s.Timings {
			w.Ns = e.Duration.Nanoseconds()
		}
		payload = w
	case NetworkEvent:
		w := wireNetwork{
			Ev: e.Kind(), Phase: e.Phase, Node: e.Node, Sweep: e.Sweep,
			WindowInputs: e.WindowInputs, InSize: e.InSize, OutSize: e.OutSize,
			Cost: e.Cost, Nodes: e.Nodes, Rewrites: e.Rewrites,
			Accepted: e.Accepted, Aborted: e.Aborted,
		}
		if s.Timings {
			w.Ns = e.Duration.Nanoseconds()
		}
		payload = w
	case RouteEvent:
		w := wireRoute{
			Ev: e.Kind(), Phase: e.Phase, Backend: e.Backend, Key: e.Key,
			Attempt: e.Attempt, Status: e.Status, Reason: e.Reason,
		}
		if s.Timings {
			w.Ns = e.Duration.Nanoseconds()
		}
		payload = w
	default:
		// Unknown event types are traced generically so a sink never
		// silently drops data when the event set grows.
		payload = map[string]any{"ev": ev.Kind()}
	}
	b, err := json.Marshal(payload)
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// knownKinds is the set of "ev" discriminators a replayer must accept.
var knownKinds = map[string]bool{
	WindowEvent{}.Kind():     true,
	HeuristicEvent{}.Kind():  true,
	LevelMatchEvent{}.Kind(): true,
	CacheEvent{}.Kind():      true,
	GCEvent{}.Kind():         true,
	BenchmarkEvent{}.Kind():  true,
	CallEvent{}.Kind():       true,
	AbortEvent{}.Kind():      true,
	ServeEvent{}.Kind():      true,
	RouteEvent{}.Kind():      true,
	NetworkEvent{}.Kind():    true,
}

// ValidateJSONL replays a trace stream structurally: every line must be a
// valid JSON object whose "ev" discriminator names a known event kind. It
// returns the number of events read. Used by the golden-trace test and by
// consumers checking a `-trace-out` file before analysis.
func ValidateJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var obj struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(line, &obj); err != nil {
			return n, fmt.Errorf("obs: line %d: %w", n+1, err)
		}
		if !knownKinds[obj.Ev] {
			return n, fmt.Errorf("obs: line %d: unknown event kind %q", n+1, obj.Ev)
		}
		n++
	}
	return n, sc.Err()
}
