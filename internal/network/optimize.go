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
// One BDD manager serves the whole run, Reset per window, per cost
// evaluation and for the miter. It is private to the call, so concurrent
// Optimize calls share nothing.
func Optimize(net *logic.Network, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	m := bdd.New(0)
	baseline := net.Clone()
	res := &Result{InitialCost: cost(m, net), InitialNodes: internalCount(net)}

	prevCost := res.InitialCost
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		stat := runSweep(m, net, sweep, opts, res)
		net.RemoveDead()
		stat.Cost = cost(m, net)
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

	res.FinalCost = cost(m, net)
	res.FinalNodes = internalCount(net)
	err := miter(m, baseline, net)
	res.MiterOK = err == nil
	if opts.Trace != nil {
		opts.Trace.Emit(obs.NetworkEvent{
			Phase: "miter", Cost: res.FinalCost, Nodes: res.FinalNodes,
			Rewrites: res.Rewrites, Accepted: res.MiterOK,
		})
	}
	return res, err
}

// runSweep performs one topological minimize-substitute pass. The fanout
// map is rebuilt after every accepted substitution (rewrites drop fanin
// edges); the window for each node is always cut from the current network.
// Every window is optimized on m, which optimizeNode resets per window.
func runSweep(m *bdd.Manager, net *logic.Network, sweep int, opts Options, res *Result) SweepStat {
	var stat SweepStat
	fanouts := fanoutMap(net)
	roots := rootSet(net)
	for _, nd := range topoOrder(net) {
		if nd.Type == logic.Input || nd.Type == logic.Const {
			continue
		}
		if expired(opts) {
			break
		}
		var start time.Time
		if opts.Trace != nil {
			start = time.Now()
		}
		w := buildWindow(net, fanouts, roots, nd, opts.FaninLevels, opts.FanoutLevels)
		var out nodeOutcome
		if len(w.inputs) > opts.MaxWindowInputs {
			out.skipped = true
		} else {
			out = optimizeNode(m, w, opts)
		}
		res.NodesMade += out.nodesMade
		res.LeakedProtected += out.leaked
		if out.accepted {
			stat.Rewrites++
			fanouts = fanoutMap(net)
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
				WindowInputs: len(w.inputs), InSize: out.inSize, OutSize: out.outSize,
				Accepted: out.accepted, Aborted: out.aborted,
				Duration: time.Since(start),
			})
		}
	}
	return stat
}

// topoOrder returns the nodes fanin-first. Network node order breaks ties,
// so the visiting order is deterministic.
func topoOrder(net *logic.Network) []*logic.Node {
	order := make([]*logic.Node, 0, net.NodeCount())
	visited := make(map[*logic.Node]bool, net.NodeCount())
	var visit func(nd *logic.Node)
	visit = func(nd *logic.Node) {
		if visited[nd] {
			return
		}
		visited[nd] = true
		for _, fi := range nd.Fanin {
			visit(fi)
		}
		order = append(order, nd)
	}
	for _, nd := range net.Nodes() {
		visit(nd)
	}
	return order
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
