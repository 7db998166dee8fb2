// Package network mines don't cares across a whole Boolean network and
// re-covers every internal node against them: the windowed analog of the
// paper's single-function minimization, in the style of Mishchenko &
// Brayton's complete-don't-care network optimization.
//
// For each internal node a k-level fanin/fanout window is cut out of the
// network, with the window's boundary signals treated as free variables.
// Inside the window the node's complete don't cares are approximated from
// two sources at once: observability (the window outputs cannot see the
// node under some boundary assignments — logic.ObservabilityDC restricted
// to the window) and satisfiability (the node's fanins, being functions of
// the same boundary signals, can never take some value combinations). Both
// are folded into one care set over the node's own fanin variables by a
// relational image:
//
//	care(y) = ∃x [ ∧_j (y_j ≡ F_j(x)) ∧ ¬ODC(x) ]
//
// where x are the window's boundary variables and F_j the fanin functions.
// It is computed as bdd.Range(F↓¬ODC), the primitive fsm.ImageFV uses,
// which equals the quantified relation by constrain's image property.
// The approximation is conservative by construction: shrinking the window
// only adds free variables, which only shrinks the don't-care set, never
// grows it — so any cover of [f_local, care] is a valid replacement.
//
// The node's local function [f_local, care] is then minimized by the
// framework's budgeted anytime heuristics (core.MinimizeAnytime under a
// per-node bdd.Budget; divergent windows degrade instead of wedging the
// sweep), the result is verified to be a valid cover and re-verified
// against the window's outputs after substitution, and the rewrite is kept
// only if it strictly shrinks the node's local BDD. A network-level
// convergence loop sweeps the nodes in topological order and re-sweeps
// while the total cost drops, up to a hard iteration cap; dead logic
// exposed by dropped fanins is swept after each pass. A final miter proves
// every primary output and next-state function unchanged against a clone
// of the pre-optimization network.
//
// All of this runs on one BDD manager per Optimize call, Reset per window
// (bdd.Manager.Reset), so thousands of tiny windows do not each allocate a
// manager's unique table and computed cache.
package network

import (
	"context"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
	"bddmin/internal/logic"
	"bddmin/internal/obs"
)

// Options parameterizes Optimize. The zero value is usable: osm_bt, a
// 2-level window on each side, at most 4 sweeps, no per-node budget.
type Options struct {
	// Heuristic minimizes each node's local ISF; nil selects osm_bt.
	Heuristic core.Minimizer
	// FaninLevels and FanoutLevels bound the window: levels of transitive
	// fanin collected below the target and its fanout cone, and levels of
	// transitive fanout above the target. 0 means 2.
	FaninLevels  int
	FanoutLevels int
	// MaxWindowInputs skips nodes whose window has more free boundary
	// variables than this (the window BDDs live over those variables).
	// 0 means 16.
	MaxWindowInputs int
	// MaxSweeps is the convergence loop's hard iteration cap; 0 means 4.
	MaxSweeps int
	// NodeBudget caps each node's window work (bdd.Budget.MaxNodesMade,
	// covering the don't-care image and the minimization). 0 is unbounded.
	// A tripped budget skips or degrades that node only; the sweep goes on.
	NodeBudget uint64
	// FailAfter injects a deterministic fault after that many budget checks
	// on every per-node budget (bdd.Budget.FailAfter) — the fuzz and chaos
	// hook proving sweeps survive aborts at arbitrary points. 0 disables.
	FailAfter uint64
	// Deadline and Ctx bound the whole optimization; both are also attached
	// to every per-node budget so a cancellation cuts the current window.
	Deadline time.Time
	Ctx      context.Context
	// Trace receives obs.NetworkEvents (per node, per sweep, final miter);
	// nil disables tracing entirely.
	Trace obs.Tracer
}

// withDefaults normalizes the zero values.
func (o Options) withDefaults() Options {
	if o.Heuristic == nil {
		o.Heuristic = core.ByName("osm_bt")
	}
	if o.FaninLevels <= 0 {
		o.FaninLevels = 2
	}
	if o.FanoutLevels <= 0 {
		o.FanoutLevels = 2
	}
	if o.MaxWindowInputs <= 0 {
		o.MaxWindowInputs = 16
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 4
	}
	return o
}

// SweepStat is one row of the convergence trajectory: the network state
// after one full topological pass (and its dead-logic sweep).
type SweepStat struct {
	// Cost is Σ over internal nodes of the node's local-function BDD size;
	// Nodes is the internal (non-input, non-constant) node count.
	Cost  int
	Nodes int
	// Rewrites counts accepted substitutions, Aborts per-node budget trips,
	// Skipped nodes passed over (window too wide, no freedom, cube blowup).
	Rewrites int
	Aborts   int
	Skipped  int
}

// Result summarizes one Optimize run.
type Result struct {
	InitialCost  int
	FinalCost    int
	InitialNodes int
	FinalNodes   int
	// Sweeps is the per-sweep trajectory, in order. Cost and Nodes are
	// monotonically non-increasing across it by construction.
	Sweeps []SweepStat
	// Rewrites and Aborts aggregate the sweep columns.
	Rewrites int
	Aborts   int
	// Converged reports a fixpoint (a sweep with no rewrites) before the
	// MaxSweeps cap.
	Converged bool
	// MiterOK reports that the final miter proved every primary output and
	// next-state function unchanged.
	MiterOK bool
	// NodesMade sums the BDD allocation counters of every window manager —
	// the run's work measure for benchmarking.
	NodesMade uint64
	// LeakedProtected counts window managers left with protected nodes
	// after their window closed (always 0; asserted by the fuzzer).
	LeakedProtected int
}

// internalCount counts the nodes the optimizer may rewrite.
func internalCount(net *logic.Network) int {
	n := 0
	for _, nd := range net.Nodes() {
		if nd.Type != logic.Input && nd.Type != logic.Const {
			n++
		}
	}
	return n
}

// Cost is the optimizer's objective: the sum over internal nodes of the
// BDD size of the node's local function, each over its own fanin
// variables. The measure is local — one node's cover never changes
// another's term — so an accepted substitution (strictly smaller local
// BDD) strictly decreases it, which is what makes the convergence loop
// terminate.
func Cost(net *logic.Network) int { return cost(bdd.New(0), net) }

// cost is Cost on a caller-supplied manager, which it Resets per node.
func cost(m *bdd.Manager, net *logic.Network) int {
	total := 0
	for _, nd := range net.Nodes() {
		if nd.Type == logic.Input || nd.Type == logic.Const {
			continue
		}
		m.Reset(len(nd.Fanin))
		total += m.Size(localFunction(m, nd, 0))
	}
	return total
}

// localFunction evaluates nd's own gate/cover semantics with its fanins
// bound to consecutive BDD variables starting at base. Duplicate fanin
// nodes share one variable (the relation semantics force them equal
// anyway).
func localFunction(m *bdd.Manager, nd *logic.Node, base int) bdd.Ref {
	memo := make(map[*logic.Node]bdd.Ref, len(nd.Fanin))
	for j, fi := range nd.Fanin {
		if _, dup := memo[fi]; !dup {
			memo[fi] = m.MkVar(bdd.Var(base + j))
		}
	}
	return logic.EvalBDD(m, nd, nil, memo)
}
