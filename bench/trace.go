package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer,
// kept in memory, and written out as JSONL when the run ends. Self times
// are derived from them: a span's duration minus that of its children.

// span is one timed interval. Parent 0 marks a root; Req ties the spans of
// one operation (a machine run, a request) together. A reported span
// carries a duration the program returned (the shard's queue_ns/run_ns)
// rather than one the benchmark timed: it is anchored to end where its
// parent ends.
type span struct {
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Req      int    `json:"req"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Reported bool   `json:"reported,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. The batch workloads nest spans through enter and
// exit on one goroutine; the serving workloads name parents explicitly.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: t.now()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
}

// enter opens a span under the innermost open one; req 0 inherits the
// parent's request.
func (t *tracer) enter(name string, req int) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		if req == 0 {
			req = t.spans[parent-1].Req
		}
	}
	id := t.begin(name, parent, req)
	t.stack = append(t.stack, id)
	return id
}

// exit closes the innermost open span.
func (t *tracer) exit() {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.end(id)
}

// report adds a reported child of parent lasting d, ending with it. A
// chain of reported children (queue, then run) is laid out back to back.
func (t *tracer) report(name string, parent int, d time.Duration, before time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	end := p.End - int64(before)
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Parent: parent, Req: p.Req,
		Start: end - int64(d), End: end, Reported: true,
	})
}

// reqOf returns the request of span id, 0 for no span.
func (t *tracer) reqOf(id int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 1 || id > len(t.spans) {
		return 0
	}
	return t.spans[id-1].Req
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, duration minus the children's durations.
func selfTimes(spans []span) map[string]int64 {
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += s.dur()
		if s.Parent != 0 {
			self[spans[s.Parent-1].Name] -= s.dur()
		}
	}
	return self
}

// totals sums durations per span name.
func totals(spans []span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// rootTime sums the durations of root spans.
func rootTime(spans []span) int64 {
	var n int64
	for _, s := range spans {
		if s.Parent == 0 {
			n += s.dur()
		}
	}
	return n
}

// writeSpans stores spans as dir/<workload>.trace.jsonl.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
