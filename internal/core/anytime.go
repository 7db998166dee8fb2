package core

import (
	"errors"
	"fmt"

	"bddmin/internal/bdd"
	"bddmin/internal/obs"
)

// Anytime minimization: budgeted runs that degrade gracefully.
//
// The multi-step drivers (OptLv, Scheduler, Robust) are sequences of
// transformation steps, and every completed sibling/level/schedule step
// produces an i-cover of its input ISF (Definition 6 of the paper): any
// cover of the output covers the input. Each driver has one step loop
// behind both of its entry points. Minimize runs the steps directly, so a
// budget an outer caller attached unwinds out of it like out of any kernel
// call. MinimizeAnytime runs each step under the budget and, when one
// aborts, keeps the ISF held before it — a valid state to stop in, whose
// function part (or, ultimately, f itself) is a valid cover of the
// original [f, c]. The final compare-against-f safeguard (the trick
// Proposition 6 legitimizes) also guarantees the degraded result never
// exceeds |f|.
//
// After an abort the manager is left consistent: the kernels raise budget
// aborts before mutating, the drivers add no protections, and the computed
// caches are flushed so no entry from the unwound recursion survives into
// follow-up work. Partial results are ordinary garbage for the next GC.

// AbortInfo describes how a budgeted minimization run ended.
type AbortInfo struct {
	// Aborted is true when a budget limit stopped the run early and the
	// returned cover is a degraded (but valid) intermediate result.
	Aborted bool
	// Err is the underlying *bdd.AbortError (nil when Aborted is false).
	Err error
	// Reason is the bdd.AbortReason string: "live-nodes", "nodes-made",
	// "deadline", "context" or "fault".
	Reason string
	// Phase names the pipeline step that was interrupted, e.g. "level 12"
	// or "window 0-3 sib_tsm".
	Phase string
	// BestSize is the node count of the returned cover.
	BestSize int
}

// newAbortInfo builds an AbortInfo from a budget abort error.
func newAbortInfo(err error, phase string) AbortInfo {
	info := AbortInfo{Aborted: true, Err: err, Phase: phase}
	var a *bdd.AbortError
	if errors.As(err, &a) {
		info.Reason = string(a.Reason)
	}
	return info
}

// stepper is implemented by the minimizers whose run is a sequence of
// i-cover steps, and by the Traced wrapper, which forwards to them. With
// catch false, steps runs every step directly and a budget abort unwinds
// to the caller (Minimize). With catch true, each step runs under
// m.Budgeted and an abort ends the run at the last completed i-cover,
// described by the returned AbortInfo (MinimizeAnytime). Either way the
// result is the raw one, not clamped to |f|.
type stepper interface {
	steps(m *bdd.Manager, f, c bdd.Ref, catch bool) (bdd.Ref, AbortInfo)
}

// runSteps runs h's step loop. Any other minimizer is a single step, which
// degrades to f itself on abort.
func runSteps(h Minimizer, m *bdd.Manager, f, c bdd.Ref, catch bool) (bdd.Ref, AbortInfo) {
	if s, ok := h.(stepper); ok {
		return s.steps(m, f, c, catch)
	}
	run := stepRun{m: m, cur: ISF{f, c}, catch: catch}
	run.step(h.Name(), func(in ISF) ISF { return ISF{F: h.Minimize(m, in.F, in.C), C: bdd.One} })
	return run.cur.F, run.info
}

// stepRun threads the current i-cover through a driver's steps.
type stepRun struct {
	m     *bdd.Manager
	cur   ISF
	catch bool
	info  AbortInfo
}

// step replaces the current i-cover with fn's result and reports whether
// the step completed. With catch set, fn runs under m.Budgeted, and an
// abort keeps the current i-cover, records phase in info and returns
// false; without it, the abort unwinds to the caller.
func (r *stepRun) step(phase string, fn func(ISF) ISF) bool {
	if !r.catch {
		r.cur = fn(r.cur)
		return true
	}
	var out ISF
	if err := r.m.Budgeted(func() { out = fn(r.cur) }); err != nil {
		r.info = newAbortInfo(err, phase)
		return false
	}
	r.cur = out
	return true
}

// phase names a step for AbortInfo.Phase. Only a run that catches aborts
// can report one, so the others skip the formatting.
func (r *stepRun) phase(format string, args ...any) string {
	if !r.catch {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// done reports whether the current i-cover has no freedom left to spend:
// it is fully specified or its function part is constant.
func (r *stepRun) done() bool { return r.cur.C == bdd.One || r.cur.F.IsConst() }

// MinimizeAnytime runs h under budget b and degrades to a valid cover when
// the budget trips: the step-wise drivers (OptLv, Scheduler, Robust, also
// behind Instrument or Traced) keep their last completed i-cover, and any
// other minimizer falls back to f. A nil b inherits the budget already
// attached to the manager. The result never exceeds |f|, and an aborted
// run emits one obs.AbortEvent to h's tracer, if it has one.
func MinimizeAnytime(h Minimizer, m *bdd.Manager, f, c bdd.Ref, b *bdd.Budget) (bdd.Ref, AbortInfo) {
	if b != nil {
		prev := m.SetBudget(b)
		defer m.SetBudget(prev)
	}
	g, info := runSteps(h, m, f, c, true)
	if m.Size(g) > m.Size(f) {
		g = f
	}
	info.BestSize = m.Size(g)
	if info.Aborted {
		m.FlushCaches()
		if tr := tracerOf(h); tr != nil {
			tr.Emit(obs.AbortEvent{Name: h.Name(), Reason: info.Reason, Phase: info.Phase, BestSize: info.BestSize})
		}
	}
	return g, info
}

// tracerOf returns the tracer h reports to: the Traced wrapper's sink or
// the minimizer's own Trace field, nil when h is untraced.
func tracerOf(h Minimizer) obs.Tracer {
	switch t := h.(type) {
	case *tracedMinimizer:
		return t.tr
	case *SiblingHeuristic:
		return t.Trace
	case *OptLv:
		return t.Trace
	case *Scheduler:
		return t.Trace
	}
	return nil
}
