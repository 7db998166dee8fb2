package core

import (
	"fmt"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/obs"
)

// SiblingHeuristic is the generic top-down sibling-matching minimizer of
// the paper's Figure 2, parameterized by the matching criterion, the
// match-complement flag, and the no-new-vars flag. Table 2 of the paper
// enumerates the 12 combinations, which collapse to 8 distinct heuristics;
// NewSiblingHeuristic derives the canonical name.
type SiblingHeuristic struct {
	Criterion  Criterion
	MatchCompl bool // additionally try matching one sibling to the other's complement
	NoNewVars  bool // never introduce a variable of c that f does not depend on
	// Trace, when non-nil, receives one obs.HeuristicEvent per Minimize
	// call (input/output sizes, sibling matches applied, duration). The
	// nil default keeps the traversal free of timing calls.
	Trace obs.Tracer
	name  string
}

// NewSiblingHeuristic constructs the sibling matcher with the given
// parameters and the paper's canonical name for the combination
// ("const" for OSDM/-/-, "restr" for OSDM/-/nnv, "osm_td", "osm_nv",
// "osm_cp", "osm_bt", "tsm_td", "tsm_cp").
func NewSiblingHeuristic(cr Criterion, matchCompl, noNewVars bool) *SiblingHeuristic {
	h := &SiblingHeuristic{Criterion: cr, MatchCompl: matchCompl, NoNewVars: noNewVars}
	h.name = canonicalSiblingName(cr, matchCompl, noNewVars)
	return h
}

func canonicalSiblingName(cr Criterion, compl, nnv bool) string {
	switch cr {
	case OSDM:
		// The complement flag has no effect on OSDM (Table 2: 3≡1, 4≡2).
		if nnv {
			return "restr"
		}
		return "const"
	case OSM:
		switch {
		case compl && nnv:
			return "osm_bt"
		case compl:
			return "osm_cp"
		case nnv:
			return "osm_nv"
		default:
			return "osm_td"
		}
	case TSM:
		// The no-new-vars flag has no effect on TSM (Table 2: 10≡9, 12≡11).
		if compl {
			return "tsm_cp"
		}
		return "tsm_td"
	}
	panic("core: invalid criterion")
}

// Name returns the paper's identifier for this parameter combination.
func (h *SiblingHeuristic) Name() string { return h.name }

// Minimize runs generic_td (Figure 2) with matches allowed at every level
// and returns the function part of the resulting i-cover, which covers
// [f, c]. It panics if c is Zero.
func (h *SiblingHeuristic) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	if c == bdd.Zero {
		panic(fmt.Sprintf("core: %s called with empty care set", h.name))
	}
	return h.step(m, ISF{f, c}, 0, bdd.Var(m.NumVars()-1), false).F
}

// step runs one generic_td pass with matches confined to the levels
// [lo, hi] and returns its i-cover, with the care part c' built only when
// care is set. It is the whole of Minimize, which keeps f' alone, and each
// windowed sibling step of the Scheduler, which hands [f', c'] on. When
// Trace is set it emits one obs.HeuristicEvent (sizes of the function
// part, sibling matches applied, duration).
func (h *SiblingHeuristic) step(m *bdd.Manager, in ISF, lo, hi bdd.Var, care bool) ISF {
	if h.Trace == nil {
		out, _ := matchSiblingsWindow(m, h.Criterion, h.MatchCompl, h.NoNewVars, in, lo, hi, care)
		return out
	}
	inSize, start := m.Size(in.F), time.Now()
	out, matches := matchSiblingsWindow(m, h.Criterion, h.MatchCompl, h.NoNewVars, in, lo, hi, care)
	outSize := m.Size(out.F)
	h.Trace.Emit(obs.HeuristicEvent{
		Name: h.name, Criterion: h.Criterion.String(),
		InSize: inSize, OutSize: outSize, Matches: matches,
		Accepted: outSize <= inSize, Duration: time.Since(start),
	})
	return out
}

// matchSiblingsWindow is generic_td of Figure 2 with matches restricted to
// nodes whose level lies in the window [lo, hi]. Unlike a cover-returning
// heuristic it returns a new incompletely specified function [f', c'] that
// keeps the unconsumed don't-care freedom: every cover of [f', c'] is a
// cover of [f, c] (an i-cover). With the window spanning every level, f'
// is the cover the paper's sibling heuristic returns. With care false it
// builds no care node and returns [f', 1], also an i-cover: the recursion
// never reads a child's care part, so f' is the same.
//
// The windowed form is the building block of the scheduler (Section 3.4):
// safe transformations are applied first and the remaining freedom is
// handed to the next transformation, rather than being consumed greedily.
// It also reports how many sibling matches were applied (plain and
// complement), the per-step work measure the traces carry.
func matchSiblingsWindow(m *bdd.Manager, cr Criterion, compl, nnv bool, in ISF, lo, hi bdd.Var, care bool) (ISF, int) {
	sc := lvScratchPool.Get().(*lvScratch)
	defer lvScratchPool.Put(sc)
	sc.memo.reset(sc.memo.used)
	t := &windowTraversal{
		m:     m,
		crit:  cr,
		compl: compl,
		nnv:   nnv,
		care:  care,
		memo:  &sc.memo,
		lo:    int32(lo),
		hi:    int32(hi),
	}
	out := t.run(in)
	if !care {
		out.C = bdd.One
	}
	return out, t.matches
}

// windowTraversal carries the state of one generic_td invocation. The memo
// is emptied per call, so timing measurements of distinct heuristics are
// independent (the manager-level caches are flushed by the harness between
// heuristics).
type windowTraversal struct {
	m       *bdd.Manager
	crit    Criterion
	compl   bool
	nnv     bool
	care    bool // build the care part of each split
	memo    *isfMap
	lo, hi  int32 // the window: levels at which matches may be made
	matches int
}

// run is generic_td of Figure 2 on the window.
func (t *windowTraversal) run(in ISF) ISF {
	m := t.m
	if in.C == bdd.One || in.C == bdd.Zero || in.F.IsConst() {
		// A Zero care set comes from a match or a split child: any
		// function covers, and keeping the value part keeps the result
		// within the original function's shape.
		return in
	}
	fl, cl := m.Level(in.F), m.Level(in.C)
	top := min(fl, cl)
	if top > t.hi {
		// Entirely below the window: leave the freedom untouched.
		return in
	}
	if r, ok := t.memo.get(in); ok {
		return r
	}
	fT, fE := branchAt(m, in.F, top)
	cT, cE := branchAt(m, in.C, top)
	tp, ep := ISF{fT, cT}, ISF{fE, cE}
	inWindow := top >= t.lo
	var ret ISF
	if inWindow && t.nnv && cl < fl {
		// f is independent of c's top variable: keep it so by
		// existentially removing the variable from the care function
		// (the restrict rule). cT + cE cannot be Zero since c is not.
		ret = t.run(ISF{in.F, m.Or(cT, cE)})
	} else if ic, ok := t.match(inWindow, false, tp, ep); ok {
		// Both children are replaced by the common i-cover; the parent
		// node disappears.
		t.matches++
		ret = t.run(ic)
	} else if ic, ok := t.match(inWindow && t.compl, true, tp, ep); ok {
		// A cover h of ic covers [fT,cT] and the complement of [fE,cE]:
		// the parent survives as ite(x, h, ¬h), costing one node but only
		// one recursion. The care function is independent of x.
		t.matches++
		h := t.run(ic)
		ret = ISF{F: m.MkNode(bdd.Var(top), h.F, h.F.Not()), C: h.C}
	} else {
		tr, er := t.run(tp), t.run(ep)
		ret = ISF{F: m.MkNode(bdd.Var(top), tr.F, er.F), C: bdd.One}
		if t.care {
			ret.C = m.MkNode(bdd.Var(top), tr.C, er.C)
		}
	}
	t.memo.put(in, ret)
	return ret
}

// match tries is_match of Figure 2 on the siblings when allowed is set.
func (t *windowTraversal) match(allowed, compl bool, tp, ep ISF) (ISF, bool) {
	if !allowed {
		return ISF{}, false
	}
	return matchSiblings(t.m, t.crit, compl, tp, ep)
}
