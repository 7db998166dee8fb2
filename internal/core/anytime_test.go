package core

import (
	"bytes"
	"errors"
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/obs"
)

// anytimeDrivers returns fresh instances of every step-wise driver plus
// the sibling matcher, which MinimizeAnytime runs as a single step.
func anytimeDrivers() []Minimizer {
	return []Minimizer{
		NewSiblingHeuristic(OSM, true, true),
		&OptLv{},
		&Scheduler{},
		&Scheduler{WindowSize: 2, SkipLevelMatching: true},
		&Robust{OnsetThreshold: -1}, // always runs both strategies
	}
}

// steppedDrivers returns fresh instances of the step-wise drivers, one per
// name the entry-point tests pin: opt_lv, sched_w4_s0, sched_w2_s0_nolv
// and robust (forced to run its level pass too).
func steppedDrivers() []Minimizer {
	return []Minimizer{
		&OptLv{},
		&Scheduler{},
		&Scheduler{WindowSize: 2, SkipLevelMatching: true},
		&Robust{OnsetThreshold: -1},
	}
}

// freshInstance rebuilds the same random n-variable instance on a new
// manager, so runs compared against each other start from identical
// arenas, caches and budget step counts.
func freshInstance(seed int64, n int) (*bdd.Manager, ISF) {
	m := bdd.New(n)
	return m, randISF(newRand(seed), m, n)
}

// TestAnytimeDegradesToValidCover injects faults at a sweep of op counts
// into every anytime driver and checks the full degradation contract:
// valid cover, never larger than |f|, no leaked protections, reclaimable
// garbage only, budget detached, manager reusable.
func TestAnytimeDegradesToValidCover(t *testing.T) {
	rng := newRand(11)
	for _, h := range anytimeDrivers() {
		m := bdd.New(8)
		in := randISF(rng, m, 8)
		m.Protect(in.F)
		m.Protect(in.C)
		m.GC()
		baseline := m.NumNodes()
		rootsBefore := m.NumProtected()
		aborted := 0
		for _, failAfter := range []uint64{1, 2, 3, 7, 25, 90, 400, 2000, 20000} {
			g, info := MinimizeAnytime(h, m, in.F, in.C, &bdd.Budget{FailAfter: failAfter})
			if info.Aborted {
				aborted++
				if info.Err == nil || !errors.Is(info.Err, bdd.ErrBudgetExceeded) {
					t.Fatalf("%s: aborted info carries wrong error: %v", h.Name(), info.Err)
				}
			}
			requireCover(t, m, g, in, h.Name())
			if m.Size(g) > m.Size(in.F) {
				t.Fatalf("%s failAfter=%d: degraded result larger than f: %d > %d",
					h.Name(), failAfter, m.Size(g), m.Size(in.F))
			}
			if info.BestSize != m.Size(g) {
				t.Fatalf("%s: BestSize %d != actual %d", h.Name(), info.BestSize, m.Size(g))
			}
			if m.Budget() != nil {
				t.Fatalf("%s: budget left attached after MinimizeAnytime", h.Name())
			}
			if got := m.NumProtected(); got != rootsBefore {
				t.Fatalf("%s failAfter=%d: protection leak: %d roots, want %d",
					h.Name(), failAfter, got, rootsBefore)
			}
			m.GC()
			if n := m.NumNodes(); n != baseline {
				t.Fatalf("%s failAfter=%d: %d nodes after GC, want baseline %d",
					h.Name(), failAfter, n, baseline)
			}
		}
		if aborted == 0 {
			t.Fatalf("%s: no fault injection point tripped; sweep too generous", h.Name())
		}
		// The manager must still minimize correctly with no budget.
		g := h.Minimize(m, in.F, in.C)
		requireCover(t, m, g, in, h.Name()+" after aborts")
	}
}

// TestAnytimeWithoutBudgetDoesNotAbort runs every driver with a nil budget
// (and none attached): the result must be a non-degraded cover.
func TestAnytimeWithoutBudgetDoesNotAbort(t *testing.T) {
	rng := newRand(13)
	for _, h := range anytimeDrivers() {
		m := bdd.New(7)
		in := randISF(rng, m, 7)
		g, info := MinimizeAnytime(h, m, in.F, in.C, nil)
		if info.Aborted {
			t.Fatalf("%s: aborted with no budget: %+v", h.Name(), info)
		}
		requireCover(t, m, g, in, h.Name())
		if m.Size(g) > m.Size(in.F) {
			t.Fatalf("%s: unbudgeted anytime result larger than f", h.Name())
		}
	}
}

// plainMinimizer is a Minimizer with no step loop, for the whole-run
// MinimizeAnytime path.
type plainMinimizer struct{}

func (plainMinimizer) Name() string { return "plain_const" }
func (plainMinimizer) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	return m.Constrain(f, c)
}

func TestMinimizeAnytimeGenericFallback(t *testing.T) {
	rng := newRand(17)
	m := bdd.New(8)
	in := randISF(rng, m, 8)
	// Generous budget: must match the plain run.
	g, info := MinimizeAnytime(plainMinimizer{}, m, in.F, in.C, &bdd.Budget{MaxNodesMade: 1 << 40})
	if info.Aborted {
		t.Fatalf("generous budget aborted: %+v", info)
	}
	requireCover(t, m, g, in, "generic fallback")
	// Immediate fault: must fall back to f itself. Flush first — a fully
	// cache-hit replay does no real work and takes no budget steps.
	m.FlushCaches()
	g, info = MinimizeAnytime(plainMinimizer{}, m, in.F, in.C, &bdd.Budget{FailAfter: 1})
	if !info.Aborted || info.Reason != string(bdd.AbortFault) {
		t.Fatalf("expected fault abort, got %+v", info)
	}
	if g != in.F {
		t.Fatal("whole-run fallback must degrade to f itself")
	}
}

// TestOptLvAbortKeepsCompletedLevels checks that the level driver resumes
// from the last completed round rather than discarding all progress: with a
// budget that allows some levels but not all, the result must still be a
// cover (the i-cover chain property) and no larger than f.
func TestOptLvAbortKeepsCompletedLevels(t *testing.T) {
	rng := newRand(19)
	m := bdd.New(9)
	in := randISF(rng, m, 9)
	o := &OptLv{}
	full := o.Minimize(m, in.F, in.C)
	fullSize := m.Size(full)
	for failAfter := uint64(50); ; failAfter *= 4 {
		g, info := MinimizeAnytime(o, m, in.F, in.C, &bdd.Budget{FailAfter: failAfter})
		requireCover(t, m, g, in, "opt_lv partial")
		if !info.Aborted {
			// Minimize returns the raw result; MinimizeAnytime clamps it to
			// |f| (the Proposition 6 comparison safeguard).
			expected := fullSize
			if fs := m.Size(in.F); expected > fs {
				expected = fs
			}
			if m.Size(g) != expected {
				t.Fatalf("unaborted budgeted run differs from plain: %d vs %d", m.Size(g), expected)
			}
			break
		}
	}
}

// An instrumented driver must keep its step-wise rollback: through
// Instrument, every budget trip point yields the same cover, phase and best
// size as the bare driver, never a whole-run fallback to f.
func TestInstrumentedAnytimeKeepsRollback(t *testing.T) {
	const n, seed = 8, 41
	for i := range steppedDrivers() {
		name := steppedDrivers()[i].Name()
		midRun := 0
		for _, failAfter := range []uint64{3, 30, 200, 600, 1500, 4000, 10000, 40000} {
			run := func(instrument bool) (string, AbortInfo) {
				m, in := freshInstance(seed, n)
				h := steppedDrivers()[i]
				if instrument {
					h = Instrument(h, &obs.Buffer{})
				}
				g, info := MinimizeAnytime(h, m, in.F, in.C, &bdd.Budget{FailAfter: failAfter})
				requireCover(t, m, g, in, name)
				return FormatSpec(m, ISF{F: g, C: bdd.One}, n), info
			}
			bare, bareInfo := run(false)
			traced, tracedInfo := run(true)
			if traced != bare || tracedInfo.Phase != bareInfo.Phase || tracedInfo.BestSize != bareInfo.BestSize ||
				tracedInfo.Aborted != bareInfo.Aborted {
				t.Fatalf("%s failAfter=%d: instrumented run (phase %q, best %d) differs from bare run (phase %q, best %d)",
					name, failAfter, tracedInfo.Phase, tracedInfo.BestSize, bareInfo.Phase, bareInfo.BestSize)
			}
			if bareInfo.Aborted && bareInfo.Phase != name {
				midRun++
			}
		}
		if midRun == 0 {
			t.Fatalf("%s: no trip point landed inside a step; sweep misses the rollback", name)
		}
	}
}

// Minimize is the unbudgeted step loop: it returns the loop's raw result,
// and traced, it emits exactly the events of the nil-budget MinimizeAnytime
// run (final_const included).
func TestMinimizeIsTheUnbudgetedStepLoop(t *testing.T) {
	finalConst := 0
	for seed := int64(60); seed < 66; seed++ {
		for i := range steppedDrivers() {
			name := steppedDrivers()[i].Name()
			m, in := freshInstance(seed, 7)
			plain := steppedDrivers()[i].Minimize(m, in.F, in.C)
			raw, info := runSteps(steppedDrivers()[i], m, in.F, in.C, true)
			if info.Aborted || raw != plain {
				t.Fatalf("%s seed %d: Minimize %d nodes, unbudgeted step loop %d nodes (aborted %v)",
					name, seed, m.Size(plain), m.Size(raw), info.Aborted)
			}
			events := func(budgeted bool) []byte {
				var buf bytes.Buffer
				m, in := freshInstance(seed, 7)
				h := Instrument(steppedDrivers()[i], obs.NewJSONL(&buf))
				if budgeted {
					MinimizeAnytime(h, m, in.F, in.C, nil)
				} else {
					h.Minimize(m, in.F, in.C)
				}
				return buf.Bytes()
			}
			plainEv, budgetedEv := events(false), events(true)
			if !bytes.Equal(plainEv, budgetedEv) {
				t.Fatalf("%s seed %d: traced Minimize and nil-budget MinimizeAnytime emit different events:\n%s\nvs\n%s",
					name, seed, plainEv, budgetedEv)
			}
			finalConst += bytes.Count(budgetedEv, []byte(`"name":"final_const"`))
		}
	}
	if finalConst == 0 {
		t.Fatal("no scheduler run reached its final constrain; the final_const event is untested")
	}
}

// Minimize runs its steps directly: a budget attached by an outer caller
// unwinds out of it as an *AbortError at every trip point, and a run that
// does not trip returns the full cover — never a silently degraded one.
func TestMinimizeUnwindsOuterBudget(t *testing.T) {
	const n, seed = 7, 43
	for i := range steppedDrivers() {
		name := steppedDrivers()[i].Name()
		m, in := freshInstance(seed, n)
		count := &bdd.Budget{} // all limits zero: never trips, counts steps
		var full bdd.Ref
		if err := m.RunBudgeted(count, func() { full = steppedDrivers()[i].Minimize(m, in.F, in.C) }); err != nil {
			t.Fatalf("%s: limitless budget aborted: %v", name, err)
		}
		fullSpec := FormatSpec(m, ISF{F: full, C: bdd.One}, n)
		total := count.Steps()
		for _, k := range []uint64{1, 2, total / 7, total / 3, total / 2, total - 1, total, total + 1} {
			if k == 0 {
				continue
			}
			m, in := freshInstance(seed, n)
			var g bdd.Ref
			err := m.RunBudgeted(&bdd.Budget{FailAfter: k}, func() { g = steppedDrivers()[i].Minimize(m, in.F, in.C) })
			if k <= total {
				var ae *bdd.AbortError
				if !errors.As(err, &ae) {
					t.Fatalf("%s FailAfter=%d of %d steps: Minimize returned (err %v) instead of unwinding",
						name, k, total, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s FailAfter=%d of %d steps: unexpected abort %v", name, k, total, err)
			}
			if got := FormatSpec(m, ISF{F: g, C: bdd.One}, n); got != fullSpec {
				t.Fatalf("%s: untripped budgeted Minimize differs from the unbudgeted cover", name)
			}
		}
	}
}

// Minimize is not clamped to |f| — Table 3 records growth — while
// MinimizeAnytime returns f whenever the raw result is larger.
func TestMinimizeKeepsGrowthAnytimeClamps(t *testing.T) {
	rng := newRand(104)
	for trial := 0; trial < 100; trial++ {
		m := bdd.New(4)
		in := randISF(rng, m, 4)
		g := (&OptLv{}).Minimize(m, in.F, in.C)
		if m.Size(g) <= m.Size(in.F) {
			continue
		}
		a, info := MinimizeAnytime(&OptLv{}, m, in.F, in.C, nil)
		if a != in.F || info.Aborted || info.BestSize != m.Size(in.F) {
			t.Fatalf("trial %d: opt_lv grew f from %d to %d nodes, but MinimizeAnytime returned %d nodes (%+v)",
				trial, m.Size(in.F), m.Size(g), m.Size(a), info)
		}
		return
	}
	t.Fatal("no instance where opt_lv grows f; widen the search")
}
