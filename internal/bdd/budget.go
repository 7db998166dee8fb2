package bdd

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Resource governance for the kernels.
//
// The recursions in this package (ITE, constrain, quantification, the match
// kernels) can blow up intermediately even when their final results are
// small — the paper's Proposition 6 shows sibling heuristics may *grow* a
// cover, and symbolic image computation is notorious for transient peaks. A
// Budget attached to a Manager bounds that growth at its source: every
// recursion step and every node allocation ticks an amortized counter, and
// when a limit is crossed the kernel unwinds immediately instead of
// exhausting memory first.
//
// Unwinding uses an internal panic carrying a *AbortError, recovered at the
// public boundary: Budgeted and RunBudgeted convert it to an ordinary error;
// it never escapes them. A caller that attaches a budget and then calls a
// plain kernel entry point (ITE, Constrain, ...) directly must therefore
// wrap the call in Budgeted, or be prepared for the panic.
//
// Aborts are raised *before* any arena mutation, so an aborted operation
// leaves the Manager fully consistent: the unique table, caches and root
// registry are intact, and partial results of the unwound recursion are
// ordinary garbage reclaimed by the next GC.

// Sentinel errors distinguishing the two ways a budgeted operation stops.
// AbortError wraps one of them; match with errors.Is.
var (
	// ErrBudgetExceeded reports that a resource limit (live nodes, nodes
	// made, deadline, or an injected fault) was crossed.
	ErrBudgetExceeded = errors.New("bdd: budget exceeded")
	// ErrCanceled reports that the budget's context was canceled.
	ErrCanceled = errors.New("bdd: operation canceled")
)

// AbortReason identifies which budget limit stopped an operation.
type AbortReason string

// The abort reasons carried by AbortError.
const (
	AbortLiveNodes AbortReason = "live-nodes" // MaxLiveNodes crossed
	AbortNodesMade AbortReason = "nodes-made" // MaxNodesMade crossed
	AbortDeadline  AbortReason = "deadline"   // Deadline passed
	AbortContext   AbortReason = "context"    // Ctx canceled
	AbortFault     AbortReason = "fault"      // FailAfter fault injection
)

// AbortError describes an aborted kernel operation. It wraps
// ErrBudgetExceeded or ErrCanceled (retrievable with errors.Is/Unwrap) and
// records the manager state at the moment of the abort.
type AbortError struct {
	Cause     error       // ErrBudgetExceeded or ErrCanceled
	Reason    AbortReason // which limit tripped
	LiveNodes int         // live arena nodes when the abort fired
	Steps     uint64      // budget steps consumed since the budget was attached
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("%v (%s; %d live nodes, %d steps)", e.Cause, e.Reason, e.LiveNodes, e.Steps)
}

// Unwrap returns the sentinel cause so errors.Is(err, ErrBudgetExceeded)
// and errors.Is(err, ErrCanceled) work through AbortError.
func (e *AbortError) Unwrap() error { return e.Cause }

// budgetAbort is the internal panic payload used to unwind a kernel
// recursion; it is recovered by Budgeted and never escapes it.
type budgetAbort struct{ err *AbortError }

// defaultCheckEvery is the amortization interval: the expensive limit
// checks (live-node count, wall clock, context poll) run once per this many
// budget steps. Cheap enough that even the match-kernel micro-benchmarks
// regress well under the 2% target, tight enough that a runaway ITE is
// stopped within a few hundred node allocations of the limit.
const defaultCheckEvery = 256

// Budget bounds the resources a sequence of kernel operations may consume.
// Attach with Manager.SetBudget or run a closure under one with
// Manager.RunBudgeted. The zero value of every field means "no limit of
// that kind"; a Budget with all fields zero never aborts.
//
// A Budget is owned by the Manager it is attached to and shares its
// single-goroutine discipline; do not share one across managers.
type Budget struct {
	// MaxLiveNodes aborts when the arena's live-node count exceeds this
	// value. This is the bound to use against memory blowup: unlike a
	// polled NumNodes check between calls, it stops a single runaway
	// recursion mid-flight.
	MaxLiveNodes int
	// MaxNodesMade aborts after this many node allocations counted from
	// the moment the budget was attached — a deterministic work bound that
	// is independent of GC behavior.
	MaxNodesMade uint64
	// Deadline aborts once the wall clock passes it. Checked every
	// CheckEvery steps, so the overshoot is bounded by the time a few
	// hundred recursion steps take (microseconds).
	Deadline time.Time
	// Ctx, when non-nil, is polled every CheckEvery steps; cancellation
	// aborts with ErrCanceled.
	Ctx context.Context
	// FailAfter, when nonzero, injects a deterministic fault: the
	// operation aborts on the FailAfter-th budget step and on every step
	// after it (exhaustion is persistent, like a real crossed limit).
	// This is the test hook that makes abort paths reproducible.
	FailAfter uint64
	// CheckEvery overrides the amortization interval of the expensive
	// checks; 0 selects the default (256). FailAfter is exact regardless.
	CheckEvery uint32

	steps uint64 // budget steps ticked since attach
}

// Steps returns the number of budget steps (recursion entries and node
// allocations) ticked since the budget was attached.
func (b *Budget) Steps() uint64 { return b.steps }

func (b *Budget) interval() uint32 {
	if b.CheckEvery > 0 {
		return b.CheckEvery
	}
	return defaultCheckEvery
}

// SetBudget attaches b to the manager and returns the previously attached
// budget (nil if none). Passing nil detaches. Attaching resets b's step
// counter and re-baselines MaxNodesMade at the manager's current
// allocation count.
//
// While a budget is attached, kernel entry points may unwind with an
// internal panic when a limit is crossed; use Budgeted or RunBudgeted to
// receive that as an error. Nested scopes restore the previous budget:
// prev := m.SetBudget(b); defer m.SetBudget(prev).
func (m *Manager) SetBudget(b *Budget) *Budget {
	prev := m.budget
	m.budget = b
	if b != nil {
		b.steps = 0
		m.budgetBaseMade = m.stNodesMade
		m.budgetCountdown = b.interval()
	}
	return prev
}

// Budget returns the currently attached budget, or nil.
func (m *Manager) Budget() *Budget { return m.budget }

// budgetStep ticks the attached budget by one step. Call sites guard with
// `if m.budget != nil` so the unbudgeted hot path pays only a pointer load
// and a branch. The fault-injection trip is exact (checked every step);
// the real limits are amortized over the countdown interval.
func (m *Manager) budgetStep() {
	b := m.budget
	b.steps++
	if b.FailAfter != 0 && b.steps >= b.FailAfter {
		m.budgetFail(AbortFault, ErrBudgetExceeded)
	}
	m.budgetCountdown--
	if m.budgetCountdown != 0 {
		return
	}
	m.budgetCountdown = b.interval()
	if b.MaxLiveNodes > 0 && m.live > b.MaxLiveNodes {
		m.budgetFail(AbortLiveNodes, ErrBudgetExceeded)
	}
	if b.MaxNodesMade > 0 && m.stNodesMade-m.budgetBaseMade > b.MaxNodesMade {
		m.budgetFail(AbortNodesMade, ErrBudgetExceeded)
	}
	if !b.Deadline.IsZero() && time.Now().After(b.Deadline) {
		m.budgetFail(AbortDeadline, ErrBudgetExceeded)
	}
	if b.Ctx != nil && b.Ctx.Err() != nil {
		m.budgetFail(AbortContext, ErrCanceled)
	}
}

// budgetFail unwinds the current kernel recursion. It runs before any
// mutation of the step that triggered it, so the manager stays consistent.
func (m *Manager) budgetFail(reason AbortReason, cause error) {
	panic(budgetAbort{&AbortError{
		Cause:     cause,
		Reason:    reason,
		LiveNodes: m.live,
		Steps:     m.budget.steps,
	}})
}

// Budgeted runs fn and converts a budget abort raised inside it into the
// *AbortError that caused it. Other panics propagate unchanged. It does not
// attach or detach anything; combine with SetBudget, or use RunBudgeted.
func (m *Manager) Budgeted(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(budgetAbort)
			if !ok {
				panic(r)
			}
			err = a.err
		}
	}()
	fn()
	return nil
}

// RunBudgeted attaches b, runs fn under it, restores the previously
// attached budget, and returns the abort error if a limit was crossed (nil
// otherwise). A nil b runs fn under the already-attached budget, if any —
// this lets nested drivers inherit an outer budget.
func (m *Manager) RunBudgeted(b *Budget, fn func()) error {
	if b != nil {
		prev := m.SetBudget(b)
		defer m.SetBudget(prev)
	}
	return m.Budgeted(fn)
}
