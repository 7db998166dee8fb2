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

// Minimize runs the generic top-down traversal (Figure 2) and returns a
// cover of [f, c]. It panics if c is Zero.
func (h *SiblingHeuristic) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	if c == bdd.Zero {
		panic(fmt.Sprintf("core: %s called with empty care set", h.name))
	}
	t := &tdTraversal{
		m:     m,
		crit:  h.Criterion,
		compl: h.MatchCompl,
		nnv:   h.NoNewVars,
		memo:  make(map[ISF]bdd.Ref),
	}
	if h.Trace == nil {
		return t.run(f, c)
	}
	start := time.Now()
	g := t.run(f, c)
	in, out := m.Size(f), m.Size(g)
	h.Trace.Emit(obs.HeuristicEvent{
		Name: h.name, Criterion: h.Criterion.String(),
		InSize: in, OutSize: out, Matches: t.matches,
		Accepted: out <= in, Duration: time.Since(start),
	})
	return g
}

// tdTraversal carries the state of one generic_td invocation. The memo
// table is per-call, so timing measurements of distinct heuristics are
// independent (the manager-level ITE cache is flushed by the harness
// between heuristics).
type tdTraversal struct {
	m       *bdd.Manager
	crit    Criterion
	compl   bool
	nnv     bool
	memo    map[ISF]bdd.Ref
	matches int
}

// run is generic_td of Figure 2. Invariant: c is never Zero.
func (t *tdTraversal) run(f, c bdd.Ref) bdd.Ref {
	m := t.m
	if c == bdd.One || f.IsConst() {
		return f
	}
	key := ISF{f, c}
	if r, ok := t.memo[key]; ok {
		return r
	}
	fl, cl := m.Level(f), m.Level(c)
	top := fl
	if cl < top {
		top = cl
	}
	fT, fE := t.branch(f, top)
	cT, cE := t.branch(c, top)
	var ret bdd.Ref
	switch {
	case t.nnv && cl < fl:
		// f is independent of c's top variable: keep it so by
		// existentially removing the variable from the care function
		// (the restrict rule). cT + cE cannot be Zero since c is not.
		ret = t.run(f, m.Or(cT, cE))
	default:
		tp := ISF{fT, cT}
		ep := ISF{fE, cE}
		if ic, ok := matchSiblings(m, t.crit, false, tp, ep); ok {
			// Both children are replaced by the common i-cover; the
			// parent node disappears.
			t.matches++
			ret = t.runISF(ic)
		} else if t.compl {
			if ic, ok := matchSiblings(m, t.crit, true, tp, ep); ok {
				// A cover h of ic covers [fT,cT] and the complement of
				// [fE,cE]: the parent survives as ite(x, h, ¬h), costing
				// one node but only one recursion.
				t.matches++
				temp := t.runISF(ic)
				ret = m.MkNode(bdd.Var(top), temp, temp.Not())
			} else {
				ret = t.split(top, tp, ep)
			}
		} else {
			ret = t.split(top, tp, ep)
		}
	}
	t.memo[key] = ret
	return ret
}

// runISF recurses on an i-cover, handling the degenerate all-don't-care
// case that OSM and TSM matches can produce.
func (t *tdTraversal) runISF(ic ISF) bdd.Ref {
	if ic.C == bdd.Zero {
		// Entirely don't care: any function covers; pick the value part,
		// which keeps the result within the original function's shape.
		return ic.F
	}
	return t.run(ic.F, ic.C)
}

// split recurses on both children independently and rebuilds the node.
func (t *tdTraversal) split(top int32, tp, ep ISF) bdd.Ref {
	tr := t.runISF(tp)
	er := t.runISF(ep)
	return t.m.MkNode(bdd.Var(top), tr, er)
}

func (t *tdTraversal) branch(f bdd.Ref, top int32) (bdd.Ref, bdd.Ref) {
	if t.m.Level(f) != top {
		return f, f
	}
	return t.m.Branches(f)
}
