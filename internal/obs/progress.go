package obs

import (
	"fmt"
	"io"
	"time"
)

// Progress is the live text sink behind `bddmin -trace`: one human-readable
// line per event, written as the pipeline runs. Cache snapshots are
// high-volume and not printed.
type Progress struct {
	w io.Writer
}

// NewProgress returns a sink writing to w.
func NewProgress(w io.Writer) *Progress { return &Progress{w: w} }

// Emit implements Tracer.
func (p *Progress) Emit(ev Event) {
	switch e := ev.(type) {
	case BenchmarkEvent:
		fmt.Fprintf(p.w, "== benchmark %s %s\n", e.Name, e.Phase)
	case CallEvent:
		fmt.Fprintf(p.w, "-- call %d: |f| = %d, c_onset = %.1f%%\n", e.Call, e.FSize, e.COnsetPct)
	case WindowEvent:
		fmt.Fprintf(p.w, "window [%d,%d] %-5s |f| = %d, |c| = %d\n", e.Lo, e.Hi, e.Phase, e.FSize, e.CSize)
	case HeuristicEvent:
		verdict := "rejected"
		if e.Accepted {
			verdict = "accepted"
		}
		fmt.Fprintf(p.w, "%-10s %s  %4d -> %4d nodes, %d matches, %s (%s)\n",
			e.Name, e.Criterion, e.InSize, e.OutSize, e.Matches,
			verdict, e.Duration.Round(time.Microsecond))
	case LevelMatchEvent:
		fmt.Fprintf(p.w, "level %-3d  %s  %d pairs, %d edges, %d cliques, %d replaced, %d pruned (%s)\n",
			e.Level, e.Criterion, e.Pairs, e.Edges, e.Cliques, e.Replaced, e.Pruned,
			e.Duration.Round(time.Microsecond))
	case GCEvent:
		fmt.Fprintf(p.w, "gc: %d live nodes, %d runs, %d made\n", e.Live, e.Runs, e.NodesMade)
	}
}
