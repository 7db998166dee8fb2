package obs

import (
	"fmt"
	"io"
	"time"
)

// HeuristicMetrics aggregates every HeuristicEvent with the same name:
// how often the transformation ran, how often its result would be kept
// (Accepted, the paper's never-increase safeguard), how many nodes it
// saved in total, and how long it took. This is the per-heuristic evidence
// the paper's Table 2/Table 3 are built from, computed live.
type HeuristicMetrics struct {
	Name         string `json:"name"`
	Applications int    `json:"applications"`
	Accepted     int    `json:"accepted"`
	// Wins counts strict improvements (OutSize < InSize).
	Wins int `json:"wins"`
	// NodesSaved sums InSize − OutSize over improving applications.
	NodesSaved int64         `json:"nodes_saved"`
	Time       time.Duration `json:"total_ns"`
}

// Metrics is the aggregating sink: it folds the event stream into
// per-heuristic metrics plus pipeline totals. Zero value is ready to use.
type Metrics struct {
	byName map[string]*HeuristicMetrics
	order  []string

	// Windows counts scheduler windows closed; LevelMatches counts level
	// match rounds; Calls counts harness call events; Aborts counts budget
	// aborts (degraded anytime results).
	Windows      int
	LevelMatches int
	Calls        int
	Aborts       int
	// CacheHits/CacheMisses accumulate over all cache snapshots.
	CacheHits, CacheMisses uint64
}

// Emit implements Tracer.
func (mt *Metrics) Emit(ev Event) {
	switch e := ev.(type) {
	case HeuristicEvent:
		if mt.byName == nil {
			mt.byName = make(map[string]*HeuristicMetrics)
		}
		h := mt.byName[e.Name]
		if h == nil {
			h = &HeuristicMetrics{Name: e.Name}
			mt.byName[e.Name] = h
			mt.order = append(mt.order, e.Name)
		}
		h.Applications++
		if e.Accepted {
			h.Accepted++
		}
		if e.OutSize < e.InSize {
			h.Wins++
			h.NodesSaved += int64(e.InSize - e.OutSize)
		}
		h.Time += e.Duration
	case WindowEvent:
		if e.Phase == "close" {
			mt.Windows++
		}
	case LevelMatchEvent:
		mt.LevelMatches++
	case CallEvent:
		mt.Calls++
	case AbortEvent:
		mt.Aborts++
	case CacheEvent:
		for _, op := range e.Ops {
			mt.CacheHits += op.Hits
			mt.CacheMisses += op.Misses
		}
	}
}

// Table returns the per-heuristic metrics in first-seen order (nil before
// the first HeuristicEvent).
func (mt *Metrics) Table() []HeuristicMetrics {
	var out []HeuristicMetrics
	for _, name := range mt.order {
		out = append(out, *mt.byName[name])
	}
	return out
}

// Format renders the metrics table as aligned text, the `bddmin -trace`
// report.
func (mt *Metrics) Format(w io.Writer) {
	fmt.Fprintf(w, "%-12s %6s %6s %6s %12s %12s\n",
		"heuristic", "apps", "acc", "wins", "nodes-saved", "time")
	for _, h := range mt.Table() {
		fmt.Fprintf(w, "%-12s %6d %6d %6d %12d %12s\n",
			h.Name, h.Applications, h.Accepted, h.Wins, h.NodesSaved, h.Time.Round(time.Microsecond))
	}
	if mt.Windows > 0 || mt.LevelMatches > 0 {
		fmt.Fprintf(w, "windows: %d, level-match rounds: %d\n", mt.Windows, mt.LevelMatches)
	}
	if mt.Aborts > 0 {
		fmt.Fprintf(w, "budget aborts (degraded results): %d\n", mt.Aborts)
	}
	if mt.CacheHits+mt.CacheMisses > 0 {
		fmt.Fprintf(w, "computed cache: %d hits / %d misses (%.1f%% hit rate)\n",
			mt.CacheHits, mt.CacheMisses,
			100*float64(mt.CacheHits)/float64(mt.CacheHits+mt.CacheMisses))
	}
}
