package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
)

// JSONL writes one JSON object per event, one event per line — the
// structured trace format behind `bddmin -trace-out` and the harness's
// per-benchmark trace files. Each line is MarshalEvent's encoding.
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

// Emit implements Tracer.
func (s *JSONL) Emit(ev Event) {
	if s.err != nil {
		return
	}
	b, err := MarshalEvent(ev, s.Timings)
	if err == nil {
		_, err = s.w.Write(append(b, '\n'))
	}
	s.err = err
}

// MarshalEvent encodes ev as one JSON object: the "ev" discriminator
// (ev.Kind()) first, then the fields the event type's JSON tags name. The
// event's Duration ("ns") is kept only when timings is true.
func MarshalEvent(ev Event, timings bool) ([]byte, error) {
	if c, ok := ev.(CacheEvent); ok && c.Ops == nil {
		c.Ops = []CacheOpStats{} // "ops" is always an array
		ev = c
	}
	if v := reflect.ValueOf(ev); !timings && v.Kind() == reflect.Struct {
		if d := v.FieldByName("Duration"); d.IsValid() && !d.IsZero() {
			untimed := reflect.New(v.Type()).Elem()
			untimed.Set(v)
			untimed.FieldByName("Duration").SetZero()
			ev = untimed.Interface().(Event)
		}
	}
	fields, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	b := append([]byte(`{"ev":"`), ev.Kind()...)
	b = append(b, '"')
	if len(fields) > len("{}") {
		b = append(b, ',')
	}
	return append(b, fields[1:]...), nil
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
