package fsm

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bddmin/internal/bdd"
)

// MinimizeHook is called at every BFS iteration to choose the set of
// states to explore from: any cover of the incompletely specified function
// [f, c] with f = U (the frontier) and c = U + ¬R (don't care on already
// reached states) is sound. The default is the constrain operator, as in
// SIS.
type MinimizeHook func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref

// ImageMethod selected the image computation engine.
//
// Deprecated: ignored. Images are always the range of the constrained
// next-state vector (Product.ImageFV).
type ImageMethod int

// FunctionalVector was the constrained-functional-vector engine.
//
// Deprecated: ignored. It is the only image engine.
const FunctionalVector ImageMethod = 0

// Options tunes the equivalence check.
type Options struct {
	// Minimize replaces the default frontier minimization (constrain).
	Minimize MinimizeHook
	// Method selected the image engine.
	//
	// Deprecated: ignored. Images are always computed by Product.ImageFV.
	Method ImageMethod
	// OnConstrain observes the per-latch δ_i ↓ S constrain instances of
	// the image computation — the interception point that yields the bulk
	// of the paper's minimization instances.
	OnConstrain ConstrainObserver
	// MaxIterations bounds the BFS depth (0 = unbounded).
	MaxIterations int
	// MaxNodes aborts the traversal when the manager holds more than this
	// many live nodes (0 = unbounded). The limit is enforced inside the
	// kernels via a bdd.Budget, so a single runaway image computation is
	// stopped mid-recursion rather than after the step completes. The
	// check result is then inconclusive and Result.Aborted is set.
	MaxNodes int
	// Deadline aborts the traversal once the wall clock passes it (zero =
	// none). Enforced by the kernel budget alongside MaxNodes.
	Deadline time.Time
	// Ctx, when non-nil, cancels the traversal: the kernel budget polls it
	// and aborts with Result.AbortReason "context" once it is canceled.
	Ctx context.Context
	// GCEvery runs a garbage collection every k iterations (0 = never).
	GCEvery int
}

// budget builds the kernel budget implied by the options, or nil when no
// kernel-level bound is requested.
func (o Options) budget() *bdd.Budget {
	if o.MaxNodes <= 0 && o.Ctx == nil && o.Deadline.IsZero() {
		return nil
	}
	return &bdd.Budget{MaxLiveNodes: o.MaxNodes, Deadline: o.Deadline, Ctx: o.Ctx}
}

// abortReason maps a kernel abort to the Result.AbortReason string.
func abortReason(err error) string {
	var a *bdd.AbortError
	if errors.As(err, &a) {
		return string(a.Reason)
	}
	return err.Error()
}

// Result reports the outcome of an equivalence check or reachability run.
type Result struct {
	// Equal is true when no reachable product state miscompares.
	Equal bool
	// Iterations is the number of BFS steps executed.
	Iterations int
	// Reached is the characteristic function of the reached state set.
	Reached bdd.Ref
	// ReachedStates is the number of product states reached.
	ReachedStates float64
	// PeakFrontierSize is the largest frontier BDD seen (before
	// minimization).
	PeakFrontierSize int
	// MinimizeCalls counts the frontier minimization invocations.
	MinimizeCalls int
	// Aborted is set when a resource bound stopped the traversal early.
	Aborted bool
	// AbortReason says which bound stopped the traversal: "iterations" for
	// MaxIterations, otherwise a bdd.AbortReason string ("live-nodes",
	// "deadline", "context", ...). Empty when Aborted is false.
	AbortReason string
}

// CheckEquivalence runs the breadth-first product traversal of Coudert et
// al. / Touati et al.: starting from the combined reset state, it
// repeatedly minimizes the frontier against the reached set, computes the
// image, and tests the miscompare predicate. It returns Equal=false as
// soon as a reachable miscomparing state appears.
func (p *Product) CheckEquivalence(opts Options) Result {
	return p.traverse(opts, nil)
}

// traverse is the BFS loop behind CheckEquivalence and FindCounterexample.
// When rings is non-nil, every new frontier is protected and appended to
// it (the onion rings of the trace extraction); the caller unprotects
// them. A traversal that finds a miscompare stops with it in the last
// ring.
func (p *Product) traverse(opts Options, rings *[]bdd.Ref) Result {
	m := p.M
	minimize := opts.Minimize
	if minimize == nil {
		minimize = func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref { return m.Constrain(f, c) }
	}
	res := Result{Equal: true}
	reached := p.initial
	frontier := p.initial
	if !m.Disjoint(reached, p.bad) {
		res.Equal = false
		return p.withReached(res, reached)
	}
	m.Protect(reached)
	m.Protect(frontier)
	defer func() {
		m.Unprotect(reached)
		m.Unprotect(frontier)
	}()
	if b := opts.budget(); b != nil {
		prev := m.SetBudget(b)
		defer m.SetBudget(prev)
	}
	for frontier != bdd.Zero && res.Equal {
		if opts.MaxIterations > 0 && res.Iterations >= opts.MaxIterations {
			res.Aborted = true
			res.AbortReason = "iterations"
			break
		}
		// One whole BFS step runs under the kernel budget. All kernel work
		// happens before the protect swap, so an abort unwinds with the
		// previous reached/frontier still protected and valid; the partial
		// image is garbage for the next GC.
		err := m.Budgeted(func() {
			res.Iterations++
			if s := m.Size(frontier); s > res.PeakFrontierSize {
				res.PeakFrontierSize = s
			}
			// The EBM instance of the paper: f = U, c = U + ¬R. Covers are
			// exactly the sets S with U ⊆ S ⊆ R-or-new, i.e. U ⊆ S ⊆ U ∪ R.
			// The successors of R∖U already lie in R, so img(S)∖R =
			// img(U)∖R: the new frontier, and with it every ring, does not
			// depend on the cover chosen.
			care := m.Or(frontier, reached.Not())
			from := frontier
			if care != bdd.One {
				res.MinimizeCalls++
				from = minimize(m, frontier, care)
			}
			img := p.ImageFV(from, opts.OnConstrain)
			newFrontier := m.AndNot(img, reached)
			newReached := m.Or(reached, img)
			m.Unprotect(reached)
			m.Unprotect(frontier)
			reached, frontier = newReached, newFrontier
			m.Protect(reached)
			m.Protect(frontier)
			if rings != nil {
				*rings = append(*rings, m.Protect(frontier))
			}
			if !m.Disjoint(reached, p.bad) {
				res.Equal = false
				return
			}
			if opts.GCEvery > 0 && res.Iterations%opts.GCEvery == 0 {
				m.GC(p.persistentRoots()...)
			}
		})
		if err != nil {
			res.Aborted = true
			res.AbortReason = abortReason(err)
			m.FlushCaches()
			break
		}
	}
	return p.withReached(res, reached)
}

// withReached completes a traversal's result with its reached set.
func (p *Product) withReached(res Result, reached bdd.Ref) Result {
	res.Reached = reached
	res.ReachedStates = p.M.SatCount(reached, len(p.A.StateVars)+len(p.B.StateVars))
	return res
}

// persistentRoots lists the product's long-lived functions, so explicit
// GCs during traversal keep them alive alongside the protected sets.
func (p *Product) persistentRoots() []bdd.Ref {
	roots := []bdd.Ref{p.initial, p.bad}
	for _, mc := range []*Machine{p.A, p.B} {
		roots = append(roots, mc.Init)
		roots = append(roots, mc.Next...)
		roots = append(roots, mc.Outputs...)
	}
	return roots
}

// MinimizeTransitionRelation minimizes a transition relation against a
// reachability invariant: given T and the reached set R(x), any cover of
// [T, R] is a valid replacement when images are only ever computed from
// subsets of R — the second application named in the paper's introduction.
func MinimizeTransitionRelation(m *bdd.Manager, T, reached bdd.Ref, hook MinimizeHook) bdd.Ref {
	if hook == nil {
		hook = func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref { return m.Restrict(f, c) }
	}
	if reached == bdd.One {
		return T
	}
	if reached == bdd.Zero {
		panic("fsm: empty reachable set")
	}
	return hook(m, T, reached)
}

// String renders a short human-readable result summary.
func (r Result) String() string {
	verdict := "EQUIVALENT"
	if !r.Equal {
		// A difference inside the (under-approximate) reached set is a real
		// difference, so DIFFERENT survives an abort.
		verdict = "DIFFERENT"
	} else if r.Aborted {
		// No difference found, but the state space was not exhausted.
		verdict = "INCONCLUSIVE"
	}
	if r.Aborted {
		if r.AbortReason != "" {
			verdict += fmt.Sprintf(" (aborted: %s)", r.AbortReason)
		} else {
			verdict += " (aborted)"
		}
	}
	return fmt.Sprintf("%s after %d iterations, %.0f states reached, peak frontier %d nodes, %d minimize calls",
		verdict, r.Iterations, r.ReachedStates, r.PeakFrontierSize, r.MinimizeCalls)
}
