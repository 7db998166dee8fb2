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
// Each sweep numbers the network's nodes once, so a window is cut and
// evaluated over node indices with generation-stamped slices, never maps.
// Each internal node's local function is compiled once per Optimize call
// into a node list (bdd.Flatten of its cover's BDD over its own fanin
// variables), on a compile manager Reset per node, and compiled again only
// when a rewrite changes its cover. A window evaluates a node by composing
// that list onto its fanins' window functions, one ITE per list node, on
// a window manager Reset per window; the forced-One and forced-Zero passes
// evaluate again only the nodes that can see the target. The list's length
// plus one (the terminal) is the node's local BDD size, its term of Cost.
// Both managers are private to the call and keep a computed cache sized
// for windows.
package network

import (
	"context"
	"time"

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
	// NodesMade sums the nodes every window made and the nodes every
	// compile of a local function made: the run's work measure for
	// benchmarking.
	NodesMade uint64
	// LeakedProtected counts windows that left protected nodes on the
	// window manager (always 0; asserted by the fuzzer).
	LeakedProtected int
}

// internal reports whether the optimizer may rewrite nd: every node but
// inputs (primary inputs and latch outputs) and constants.
func internal(nd *logic.Node) bool { return nd.Type != logic.Input && nd.Type != logic.Const }

// internalCount counts the nodes the optimizer may rewrite.
func internalCount(net *logic.Network) int {
	n := 0
	for _, nd := range net.Nodes() {
		if internal(nd) {
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
func Cost(net *logic.Network) int {
	local, _ := compileAll(newManager(), net)
	return cost(net, local)
}

// cost is Cost read from compiled local functions.
func cost(net *logic.Network, local map[*logic.Node]localFn) int {
	total := 0
	for _, nd := range net.Nodes() {
		if internal(nd) {
			total += local[nd].size()
		}
	}
	return total
}
