package core

import (
	"strings"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/obs"
)

// CriterionName maps a registered heuristic name to the matching criterion
// it spends don't-care freedom under ("osdm", "osm" or "tsm"), the
// Criterion column of the trace schema. Composite heuristics (sched,
// robust) and the pseudo-heuristics return "".
func CriterionName(name string) string {
	switch {
	case name == "const" || name == "restr":
		return OSDM.String()
	case strings.HasPrefix(name, "osm_"):
		return OSM.String()
	case strings.HasPrefix(name, "tsm_") || name == "opt_lv":
		return TSM.String()
	}
	return ""
}

// Instrument connects a heuristic to a tracer, picking the right hook for
// each minimizer shape. Minimizers that stream their own events get their
// Trace field set — sibling heuristics emit heuristic events with
// sibling-match counts themselves (wrapping them too would double-count in
// the metrics table), while the scheduler and opt_lv emit window and
// level-round events and still want the overall summary event from the
// generic Traced wrapper. Everything else is wrapped. The wrapper forwards
// the driver's step loop, so MinimizeAnytime on an instrumented driver
// keeps its step-wise rollback. A nil tr returns h unchanged.
func Instrument(h Minimizer, tr obs.Tracer) Minimizer {
	if tr == nil {
		return h
	}
	switch t := h.(type) {
	case *SiblingHeuristic:
		t.Trace = tr
		return h
	case *Scheduler:
		t.Trace = tr
	case *OptLv:
		t.Trace = tr
	}
	return Traced(h, tr)
}

// tracedMinimizer decorates a Minimizer with per-call event emission.
type tracedMinimizer struct {
	h  Minimizer
	tr obs.Tracer
}

// Traced wraps h so every Minimize call emits an obs.HeuristicEvent into
// tr: input and output node counts, duration, and whether the result would
// be kept under the paper's never-increase safeguard. A nil tr returns h
// unchanged, preserving the zero-overhead default. If h carries its own
// Trace field (SiblingHeuristic, OptLv, Scheduler), that inner tracing is
// independent — wrap with Traced for the outer per-call summary, set the
// field for the step-by-step stream, or both.
func Traced(h Minimizer, tr obs.Tracer) Minimizer {
	if tr == nil {
		return h
	}
	return &tracedMinimizer{h: h, tr: tr}
}

// Name implements Minimizer.
func (t *tracedMinimizer) Name() string { return t.h.Name() }

// Minimize implements Minimizer.
func (t *tracedMinimizer) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	g, _ := t.steps(m, f, c, false)
	return g
}

// steps runs the wrapped minimizer's own step loop, so a budgeted run
// through the wrapper keeps the driver's rollback, and then emits the
// summary event with the raw (unclamped) output size.
func (t *tracedMinimizer) steps(m *bdd.Manager, f, c bdd.Ref, catch bool) (bdd.Ref, AbortInfo) {
	inSize := m.Size(f)
	start := time.Now()
	g, info := runSteps(t.h, m, f, c, catch)
	elapsed := time.Since(start)
	outSize := m.Size(g)
	t.tr.Emit(obs.HeuristicEvent{
		Name:      t.h.Name(),
		Criterion: CriterionName(t.h.Name()),
		InSize:    inSize,
		OutSize:   outSize,
		Accepted:  outSize <= inSize,
		Duration:  elapsed,
	})
	return g, info
}
