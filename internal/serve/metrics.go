package serve

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"sync/atomic"
	"time"

	"bddmin/internal/obs"
)

// latencyHist is a lock-free log₂ histogram of end-to-end request
// latencies. Bucket i holds requests with latency ≤ histBase<<i ns, so 28
// buckets span 1µs to ~4.7 minutes; the last bucket is a catch-all.
// Quantiles reported from it are bucket upper bounds — a deliberate
// overestimate with at most 2× resolution error, good enough for an
// operational dashboard (the load harness computes exact quantiles from
// raw samples on the client side).
const (
	histBase    = 1 << 10 // 1.024µs
	histBuckets = 28
)

type latencyHist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// observe records one latency in nanoseconds.
func (h *latencyHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns) / histBase)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// snapshot renders the histogram with estimated quantiles.
func (h *latencyHist) snapshot() LatencySnapshot {
	var counts [histBuckets]uint64
	total := uint64(0)
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	out := LatencySnapshot{Count: h.n.Load(), MaxNs: h.max.Load()}
	if total == 0 {
		return out
	}
	out.MeanNs = float64(h.sum.Load()) / float64(total)
	bound := func(i int) int64 { return int64(histBase) << i }
	quantile := func(q float64) int64 {
		target := uint64(q * float64(total))
		seen := uint64(0)
		for i, c := range counts {
			seen += c
			if seen > target {
				return bound(i)
			}
		}
		return bound(histBuckets - 1)
	}
	out.P50Ns = quantile(0.50)
	out.P95Ns = quantile(0.95)
	out.P99Ns = quantile(0.99)
	for i, c := range counts {
		if c > 0 {
			out.Buckets = append(out.Buckets, LatencyBucket{LeNs: bound(i), Count: c})
		}
	}
	return out
}

// metricsSnapshot assembles the GET /metrics document.
func (s *Server) metricsSnapshot() MetricsSnapshot {
	uptime := time.Since(s.start)
	snap := MetricsSnapshot{
		UptimeNs:   uptime.Nanoseconds(),
		QueueDepth: len(s.queue),
		QueueCap:   s.cfg.QueueDepth,
		Counters: CounterSnapshot{
			Accepted: s.counters.accepted.Load(),
			Finished: s.counters.finished.Load(),
			Degraded: s.counters.degraded.Load(),
			Aborts:   s.counters.aborts.Load(),
			Rejected: s.counters.rejected.Load(),
			Draining: s.counters.drainRejects.Load(),
			Invalid:  s.counters.invalid.Load(),
			Canceled: s.counters.canceled.Load(),
			Failed:   s.counters.failed.Load(),
		},
		Cache:   s.cacheSnapshot(),
		Latency: s.lat.snapshot(),
	}
	for _, w := range s.workers {
		busy := w.busyNs.Load()
		util := 0.0
		if uptime > 0 {
			util = float64(busy) / float64(uptime.Nanoseconds())
		}
		snap.Shards = append(snap.Shards, ShardSnapshot{
			Shard:       w.id,
			Jobs:        w.jobs.Load(),
			BusyNs:      busy,
			Utilization: util,
			Vars:        int(w.vars.Load()),
			LiveNodes:   int(w.live.Load()),
			NodesMade:   w.made.Load(),
		})
	}
	s.obsMu.Lock()
	for _, h := range s.heur.Table() {
		snap.Heuristics = append(snap.Heuristics, HeuristicStats{
			Name:         h.Name,
			Applications: h.Applications,
			Accepted:     h.Accepted,
			Wins:         h.Wins,
			NodesSaved:   h.NodesSaved,
			TotalNs:      float64(h.Time.Nanoseconds()),
		})
	}
	s.obsMu.Unlock()
	return snap
}

// eventsJSON renders pipeline events in the JSONL wire schema, one raw
// JSON object per event — the response-embedded form of a request trace.
func eventsJSON(events []obs.Event) []json.RawMessage {
	if len(events) == 0 {
		return nil
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	for _, ev := range events {
		sink.Emit(ev)
	}
	if sink.Err() != nil {
		return nil
	}
	var out []json.RawMessage
	for _, line := range bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n")) {
		out = append(out, json.RawMessage(append([]byte(nil), line...)))
	}
	return out
}
