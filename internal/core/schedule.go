package core

import (
	"fmt"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/obs"
)

// Scheduler composes the basic transformations per Section 3.4 of the
// paper: working top-down in windows of levels, it applies the safer
// transformations first — OSM can lose optimality only in the
// superstructure above the window (Theorem 12), so spending OSM freedom
// early is cheap — and the more powerful but less safe TSM afterwards,
// finally falling back to constrain for the remaining levels, where local
// assignment is adequate because little sharing remains to be gained.
//
// For each window the schedule is:
//
//  1. OSM on siblings, top-down, in the window.
//  2. TSM on siblings, top-down, in the window.
//  3. OSM on levels, top-down, in the window (skippable: expensive).
//  4. TSM on levels, top-down, in the window (skippable: expensive).
//  5. If fewer than StopTopDown levels remain, finish with constrain.
type Scheduler struct {
	// WindowSize is the number of levels per window. Values ≤ 0 select 4.
	WindowSize int
	// StopTopDown stops the windowed phase when that many levels remain
	// and finishes with constrain. Values < 0 select 0 (never stop early).
	StopTopDown int
	// SkipLevelMatching omits steps 3 and 4, trading quality for runtime
	// (the paper: "applying minimization at a level is generally
	// expensive, so steps 4 and 5 should be skipped if runtime is a
	// concern").
	SkipLevelMatching bool
	// Trace, when non-nil, receives the schedule's event stream: one
	// obs.WindowEvent pair per window, one obs.HeuristicEvent per sibling
	// step ("sib_osm", "sib_tsm") and for the final constrain
	// ("final_const"), and one obs.LevelMatchEvent per level-match round.
	// The nil default keeps the schedule free of timing and size calls.
	Trace obs.Tracer
}

// Name identifies the scheduler in result tables; it encodes the
// parameters, e.g. "sched_w4_s0" or "sched_w4_s0_nolv".
func (s *Scheduler) Name() string {
	w, st := s.window(), s.stop()
	name := fmt.Sprintf("sched_w%d_s%d", w, st)
	if s.SkipLevelMatching {
		name += "_nolv"
	}
	return name
}

func (s *Scheduler) window() int {
	if s.WindowSize <= 0 {
		return 4
	}
	return s.WindowSize
}

func (s *Scheduler) stop() int {
	if s.StopTopDown < 0 {
		return 0
	}
	return s.StopTopDown
}

// lvStep runs one level-matching round, traced when enabled.
func (s *Scheduler) lvStep(m *bdd.Manager, in ISF, cr Criterion, i int) ISF {
	var start time.Time
	if s.Trace != nil {
		start = time.Now()
	}
	out, stats := MinimizeAtLevel(m, in, bdd.Var(i), cr)
	if s.Trace != nil {
		s.Trace.Emit(levelMatchEvent(i, cr, stats, time.Since(start)))
	}
	return out
}

// finalStep constrains the remaining freedom away, traced when enabled.
func (s *Scheduler) finalStep(m *bdd.Manager, in ISF) ISF {
	var inSize int
	var start time.Time
	if s.Trace != nil {
		inSize, start = m.Size(in.F), time.Now()
	}
	g := m.Constrain(in.F, in.C)
	if s.Trace != nil {
		outSize := m.Size(g)
		s.Trace.Emit(obs.HeuristicEvent{
			Name: "final_const", Criterion: OSDM.String(),
			InSize: inSize, OutSize: outSize,
			Accepted: outSize <= inSize, Duration: time.Since(start),
		})
	}
	return ISF{F: g, C: bdd.One}
}

func (s *Scheduler) emitWindow(m *bdd.Manager, phase string, lo, hi int, cur ISF) {
	if s.Trace == nil {
		return
	}
	s.Trace.Emit(obs.WindowEvent{
		Phase: phase, Lo: lo, Hi: hi,
		FSize: m.Size(cur.F), CSize: m.Size(cur.C),
	})
}

// Minimize runs the schedule and returns a cover of [f, c].
func (s *Scheduler) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	g, _ := s.steps(m, f, c, false)
	return g
}

// steps is the schedule behind Minimize and MinimizeAnytime. Each windowed
// sibling match, each level match and the final constrain is one step.
func (s *Scheduler) steps(m *bdd.Manager, f, c bdd.Ref, catch bool) (bdd.Ref, AbortInfo) {
	if c == bdd.Zero {
		panic("core: scheduler called with empty care set")
	}
	run := stepRun{m: m, cur: ISF{f, c}, catch: catch}
	w, stop, n := s.window(), s.stop(), m.NumVars()
	// Steps 1 and 2 are windowed sibling passes, traced as "sib_osm" and
	// "sib_tsm".
	osm := &SiblingHeuristic{Criterion: OSM, NoNewVars: true, Trace: s.Trace, name: "sib_osm"}
	tsm := &SiblingHeuristic{Criterion: TSM, Trace: s.Trace, name: "sib_tsm"}
windows:
	for lo := 0; lo < n && !run.done() && n-lo > stop; lo += w {
		hi := min(lo+w-1, n-1)
		s.emitWindow(m, "open", lo, hi, run.cur)
		sibOSM := func(in ISF) ISF { return osm.step(m, in, bdd.Var(lo), bdd.Var(hi), true) }
		sibTSM := func(in ISF) ISF { return tsm.step(m, in, bdd.Var(lo), bdd.Var(hi), true) }
		if !run.step(run.phase("window %d-%d sib_osm", lo, hi), sibOSM) ||
			!run.step(run.phase("window %d-%d sib_tsm", lo, hi), sibTSM) {
			break
		}
		for i := lo; i <= hi && !s.SkipLevelMatching && !run.done(); i++ {
			lvOSM := func(in ISF) ISF { return s.lvStep(m, in, OSM, i) }
			lvTSM := func(in ISF) ISF { return s.lvStep(m, in, TSM, i) }
			if !run.step(run.phase("level %d osm", i), lvOSM) || !run.step(run.phase("level %d tsm", i), lvTSM) {
				break windows
			}
		}
		s.emitWindow(m, "close", lo, hi, run.cur)
	}
	if !run.info.Aborted && !run.done() && run.cur.C != bdd.Zero {
		run.step("final constrain", func(in ISF) ISF { return s.finalStep(m, in) })
	}
	return run.cur.F, run.info
}
