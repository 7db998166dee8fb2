package core

import "bddmin/internal/bdd"

// matchSiblingsWindow applies the sibling-matching transformation of
// Figure 2 restricted to a window of levels [lo, hi], and — unlike the
// cover-returning heuristics — returns a new incompletely specified
// function [f', c'] that preserves the unconsumed don't-care freedom:
// every cover of [f', c'] is a cover of [f, c] (an i-cover), and matches
// have been applied only at nodes whose level lies within the window.
//
// This is the building block of the scheduler (Section 3.4): safe
// transformations are applied first and the remaining freedom is handed to
// the next transformation, rather than being consumed greedily. It also
// reports how many sibling matches were applied (plain and complement),
// the per-step work measure the scheduler traces.
func matchSiblingsWindow(m *bdd.Manager, cr Criterion, compl, nnv bool, in ISF, lo, hi bdd.Var) (ISF, int) {
	t := &windowTraversal{
		m:     m,
		crit:  cr,
		compl: compl,
		nnv:   nnv,
		memo:  make(map[ISF]ISF),
		lo:    int32(lo),
		hi:    int32(hi),
	}
	return t.run(in), t.matches
}

type windowTraversal struct {
	m       *bdd.Manager
	crit    Criterion
	compl   bool
	nnv     bool
	memo    map[ISF]ISF
	lo, hi  int32 // the window: levels at which matches may be made
	matches int
}

func (t *windowTraversal) run(in ISF) ISF {
	m := t.m
	if in.C == bdd.One || in.C == bdd.Zero || in.F.IsConst() {
		return in
	}
	if r, ok := t.memo[in]; ok {
		return r
	}
	fl, cl := m.Level(in.F), m.Level(in.C)
	top := fl
	if cl < top {
		top = cl
	}
	var ret ISF
	if top > t.hi {
		// Entirely below the window: leave the freedom untouched.
		ret = in
	} else {
		fT, fE := t.branch(in.F, top)
		cT, cE := t.branch(in.C, top)
		tp := ISF{fT, cT}
		ep := ISF{fE, cE}
		inWindow := top >= t.lo
		switch {
		case inWindow && t.nnv && cl < fl:
			ret = t.run(ISF{in.F, m.Or(cT, cE)})
		default:
			ic, ok := ISF{}, false
			complMatch := false
			if inWindow {
				ic, ok = matchSiblings(m, t.crit, false, tp, ep)
				if !ok && t.compl {
					ic, ok = matchSiblings(m, t.crit, true, tp, ep)
					complMatch = ok
				}
			}
			switch {
			case ok && !complMatch:
				t.matches++
				ret = t.run(ic)
			case ok && complMatch:
				t.matches++
				h := t.run(ic)
				// gT must cover h's ISF, gE its complement; the care
				// function is independent of the branching variable.
				ret = ISF{
					F: m.MkNode(bdd.Var(top), h.F, h.F.Not()),
					C: h.C,
				}
			default:
				tr := t.run(tp)
				er := t.run(ep)
				ret = ISF{
					F: m.MkNode(bdd.Var(top), tr.F, er.F),
					C: m.MkNode(bdd.Var(top), tr.C, er.C),
				}
			}
		}
	}
	t.memo[in] = ret
	return ret
}

func (t *windowTraversal) branch(f bdd.Ref, top int32) (bdd.Ref, bdd.Ref) {
	if t.m.Level(f) != top {
		return f, f
	}
	return t.m.Branches(f)
}
