package network

import (
	"slices"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
	"bddmin/internal/logic"
)

// nodeOutcome is one minimize-substitute attempt's accounting row.
type nodeOutcome struct {
	accepted bool
	aborted  bool // a per-node budget scope tripped (possibly still accepted)
	skipped  bool // nothing applied: no freedom, not smaller, cube blowup, abort
	inSize   int  // local BDD size before (0 when the CDC phase aborted)
	outSize  int  // local BDD size after the attempt (== inSize when skipped)
	// window and compile manager accounting, folded into Result.
	nodesMade uint64
	leaked    int
}

// nodeBudget builds one fresh per-scope budget, or nil when Options sets no
// limit. Each budget scope (don't-care image, minimization, substitution
// re-check) gets its own attach, which re-baselines the counters — the cap
// is per phase, which is the coarser but simpler reading of "per node".
func nodeBudget(o Options) *bdd.Budget {
	if o.NodeBudget == 0 && o.FailAfter == 0 && o.Deadline.IsZero() && o.Ctx == nil {
		return nil
	}
	return &bdd.Budget{
		MaxNodesMade: o.NodeBudget,
		FailAfter:    o.FailAfter,
		Deadline:     o.Deadline,
		Ctx:          o.Ctx,
	}
}

// savedNode snapshots the mutable fields of a node so a substitution can be
// reverted if the post-substitution window check fails.
type savedNode struct {
	typ   logic.GateType
	value bool
	cover []string
	fanin []*logic.Node
}

func saveNode(nd *logic.Node) savedNode {
	return savedNode{typ: nd.Type, value: nd.Value, cover: nd.Cover, fanin: nd.Fanin}
}

func (s savedNode) restore(nd *logic.Node) {
	nd.Type, nd.Value, nd.Cover, nd.Fanin = s.typ, s.value, s.cover, s.fanin
}

// optimizeNode runs the full per-node pipeline on the window o.w: don't-care
// image, budgeted minimization, SOP lowering, in-place substitution, and a
// window-level equivalence re-check that reverts on any mismatch. The
// window's BDDs live on o.m, which is Reset here to the window's variables;
// the function never calls GC on it, so every Ref stays valid for the
// node's whole lifetime. The result is named so the deferred accounting
// capture below lands in the value actually returned.
func (o *optimizer) optimizeNode() (out nodeOutcome) {
	m, opts := o.m, o.opts
	t := o.w.target
	target := o.ix.nodes[t]
	nx := len(o.w.inputs)
	arity := len(target.Fanin)
	if arity == 0 {
		// A fanin-free table is already a constant; nothing to recover.
		out.skipped = true
		return out
	}

	m.Reset(nx + arity)
	defer func() {
		out.nodesMade += m.NodesMade()
		out.leaked = m.NumProtected()
	}()

	// Phase 1: window functions and the don't-care image. An abort here
	// leaves nothing usable — skip the node.
	var fx flexibility
	if err := m.RunBudgeted(nodeBudget(opts), func() { fx = o.windowFlexibility() }); err != nil {
		out.aborted = true
		out.skipped = true
		return out
	}
	out.inSize = o.ix.fn[t].size()
	out.outSize = out.inSize
	if fx.care == bdd.One {
		// No freedom: any valid cover equals f_loc exactly.
		out.skipped = true
		return out
	}

	// Phase 2: minimize [f_loc, care]. Trivial instances (empty care set,
	// care inside the on- or offset) are solved exactly; everything else
	// goes through the budgeted anytime driver, which degrades to a valid
	// cover no larger than f_loc when the budget trips.
	isf := core.ISF{F: fx.floc, C: fx.care}
	g, trivial := isf.Trivial(m)
	if !trivial {
		var info core.AbortInfo
		g, info = core.MinimizeAnytime(opts.Heuristic, m, fx.floc, fx.care, nodeBudget(opts))
		if info.Aborted {
			out.aborted = true
		}
	}
	if !isf.Cover(m, g) {
		// Defense in depth: a heuristic bug must not corrupt the network.
		out.skipped = true
		return out
	}
	newSize := m.Size(g)
	if newSize >= out.inSize {
		out.skipped = true
		return out
	}

	// Phase 3: lower g to an SOP cover over the surviving fanins. Cube
	// enumeration walks the existing diagram (no new nodes). A column that
	// is '-' in every row never appears in the SOP, so its fanin edge is
	// dropped — this is where dead logic gets exposed.
	rows, keep, ok := lowerCover(m, g, fx.yvar, nx)
	if !ok {
		out.skipped = true
		return out
	}

	saved := saveNode(target)
	savedFn, savedFanin := o.ix.fn[t], o.ix.fanin[t]
	switch g {
	case bdd.One, bdd.Zero:
		target.Type = logic.Const
		target.Value = g == bdd.One
		target.Fanin = nil
		target.Cover = nil
		o.ix.fanin[t] = nil
	default:
		kept := make([]*logic.Node, len(keep))
		fanin := make([]int32, len(keep))
		for k, j := range keep {
			kept[k] = target.Fanin[j]
			fanin[k] = savedFanin[j]
		}
		target.Type = logic.Table
		target.Fanin = kept
		target.Cover = rows
		target.Value = false
		o.ix.fanin[t] = fanin
		// Compiled from the new rows, so phase 4 checks the lowering too.
		fn, made := compile(o.lc, target)
		o.ix.fn[t] = fn
		out.nodesMade += made
	}

	// Phase 4: re-derive the window outputs under the rewritten node and
	// compare against the originals, reverting on any difference. Only the
	// nodes that can see the target are evaluated again. With a correct
	// pipeline this never fires; it turns a latent bug anywhere above into
	// a skipped node instead of a miscompiled network.
	verified := false
	err := m.RunBudgeted(nodeBudget(opts), func() {
		verified = slices.Equal(o.ev.coneOutputs(0, false), fx.origOuts) // the target as rewritten
	})
	if err != nil || !verified {
		saved.restore(target)
		o.ix.fn[t], o.ix.fanin[t] = savedFn, savedFanin
		if err != nil {
			out.aborted = true
		}
		out.skipped = true
		return out
	}
	o.local[target] = o.ix.fn[t]
	out.accepted = true
	out.outSize = newSize
	return out
}

// maxCubes rejects substitutions whose minimized cover enumerates to more
// than this many SOP rows.
const maxCubes = 1024

// lowerCover enumerates the cubes of g into SOP rows over the y variables
// yvar (one per fanin position), pruning columns that never appear. It
// fails (ok=false) when g has more than maxCubes cubes, or — defensively —
// when g's support escapes into the boundary variables (positions < nx),
// which no valid cover of a y-only ISF can do.
func lowerCover(m *bdd.Manager, g bdd.Ref, yvar []bdd.Var, nx int) (rows []string, keep []int, ok bool) {
	if g == bdd.One || g == bdd.Zero {
		return nil, nil, true
	}
	escaped := false
	overflow := false
	m.ForEachCube(g, maxCubes+1, func(cube []bdd.CubeValue) bool {
		if len(rows) == maxCubes {
			overflow = true
			return false
		}
		for v := 0; v < nx; v++ {
			if cube[v] != bdd.DontCare {
				escaped = true
				return false
			}
		}
		row := make([]byte, len(yvar))
		for j, v := range yvar {
			switch cube[v] {
			case bdd.CubeOne:
				row[j] = '1'
			case bdd.CubeZero:
				row[j] = '0'
			default:
				row[j] = '-'
			}
		}
		rows = append(rows, string(row))
		return true
	})
	if escaped || overflow {
		return nil, nil, false
	}

	// Column pruning: fanin positions whose column is all '-' are not in
	// g's support (every support variable of a BDD shows up in at least one
	// 1-path) and are dropped from both the rows and the fanin list.
	used := make([]bool, len(yvar))
	for _, row := range rows {
		for j := range row {
			if row[j] != '-' {
				used[j] = true
			}
		}
	}
	for j, u := range used {
		if u {
			keep = append(keep, j)
		}
	}
	pruned := make([]string, len(rows))
	for i, row := range rows {
		b := make([]byte, len(keep))
		for k, j := range keep {
			b[k] = row[j]
		}
		pruned[i] = string(b)
	}
	return pruned, keep, true
}
