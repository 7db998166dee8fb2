package network

import (
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/logic"
	"bddmin/internal/obs"
)

// Optimize runs the whole-network don't-care optimization loop on net, in
// place: topological minimize-substitute sweeps repeated until a fixpoint
// (a sweep with no accepted rewrite) or the MaxSweeps cap, with dead logic
// swept after each pass, followed by a miter proving every primary output
// and next-state function unchanged against a clone of the input network.
//
// The returned Result is always populated, including the per-sweep
// trajectory; the error is non-nil only when the final miter fails (which
// the per-substitution verification makes unreachable short of a bug — the
// network is then left in its final state for post-mortem, with
// Result.MiterOK false).
//
// The run's managers and buffers are private to the call, so concurrent
// Optimize calls share nothing.
func Optimize(net *logic.Network, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	baseline := net.Clone()
	o := newOptimizer(net, opts)
	res := o.res
	res.InitialCost = cost(net, o.local)
	res.InitialNodes = internalCount(net)

	prevCost := res.InitialCost
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		stat := o.runSweep(sweep)
		net.RemoveDead()
		stat.Cost = cost(net, o.local)
		stat.Nodes = internalCount(net)
		res.Sweeps = append(res.Sweeps, stat)
		res.Rewrites += stat.Rewrites
		res.Aborts += stat.Aborts
		if opts.Trace != nil {
			opts.Trace.Emit(obs.NetworkEvent{
				Phase: "sweep", Sweep: sweep,
				Cost: stat.Cost, Nodes: stat.Nodes, Rewrites: stat.Rewrites,
			})
		}
		if stat.Rewrites == 0 {
			res.Converged = true
			break
		}
		if stat.Cost >= prevCost {
			// Unreachable (every accepted rewrite strictly shrinks one
			// node's local BDD and touches no other term), but a cheap
			// breaker that makes termination independent of that argument.
			break
		}
		prevCost = stat.Cost
		if expired(opts) {
			break
		}
	}

	res.FinalCost = cost(net, o.local)
	res.FinalNodes = internalCount(net)
	err := miter(o.m, baseline, net)
	res.MiterOK = err == nil
	if opts.Trace != nil {
		opts.Trace.Emit(obs.NetworkEvent{
			Phase: "miter", Cost: res.FinalCost, Nodes: res.FinalNodes,
			Rewrites: res.Rewrites, Accepted: res.MiterOK,
		})
	}
	return res, err
}

// optimizer is one Optimize run: the network, its two managers, every
// internal node's compiled local function, and the index, window and
// evaluator that every window of the run reuses.
type optimizer struct {
	net   *logic.Network
	opts  Options
	res   *Result
	m     *bdd.Manager // windows, Reset per window, and the final miter
	lc    *bdd.Manager // local-function compiles, Reset per compile
	local map[*logic.Node]localFn
	ix    index
	w     window
	ev    evaluator
}

// newOptimizer compiles every internal node of net and sizes the buffers
// for its nodes; rewrites only ever remove nodes.
func newOptimizer(net *logic.Network, opts Options) *optimizer {
	n := net.NodeCount()
	o := &optimizer{net: net, opts: opts, res: &Result{}, m: newManager(), lc: newManager(), w: newWindow(n)}
	o.local, o.res.NodesMade = compileAll(o.lc, net)
	o.ev = newEvaluator(o.m, &o.ix, &o.w, n)
	return o
}

// runSweep performs one topological minimize-substitute pass over the
// network as numbered at its start. The window for each node is cut from
// the current network: an accepted rewrite updates the index in place (see
// index for why fanout lists need no update).
func (o *optimizer) runSweep(sweep int) SweepStat {
	opts := o.opts
	var stat SweepStat
	o.ix.number(o.net, o.local)
	for _, t := range o.ix.topoOrder() {
		nd := o.ix.nodes[t]
		if !internal(nd) {
			continue
		}
		if expired(opts) {
			break
		}
		var start time.Time
		if opts.Trace != nil {
			start = time.Now()
		}
		o.w.cut(&o.ix, t, opts.FaninLevels, opts.FanoutLevels)
		var out nodeOutcome
		if len(o.w.inputs) > opts.MaxWindowInputs {
			out.skipped = true
		} else {
			out = o.optimizeNode()
		}
		o.res.NodesMade += out.nodesMade
		o.res.LeakedProtected += out.leaked
		if out.accepted {
			stat.Rewrites++
		}
		if out.aborted {
			stat.Aborts++
		}
		if out.skipped {
			stat.Skipped++
		}
		if opts.Trace != nil {
			opts.Trace.Emit(obs.NetworkEvent{
				Phase: "node", Node: nd.Name, Sweep: sweep,
				WindowInputs: len(o.w.inputs), InSize: out.inSize, OutSize: out.outSize,
				Accepted: out.accepted, Aborted: out.aborted,
				Duration: time.Since(start),
			})
		}
	}
	return stat
}

// expired reports whether the run-level deadline or context has lapsed;
// checked between nodes and between sweeps so a cancellation cuts the run
// at the next node boundary (the per-node budgets cut *within* a window).
func expired(o Options) bool {
	if o.Ctx != nil && o.Ctx.Err() != nil {
		return true
	}
	if !o.Deadline.IsZero() && time.Now().After(o.Deadline) {
		return true
	}
	return false
}
