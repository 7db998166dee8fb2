package core

import "bddmin/internal/bdd"

// Robust is the combined heuristic the paper's conclusion calls for: "a
// heuristic that combines the strong points of the level-match and
// sibling-match heuristics would be robust and would yield good results".
//
// The experiments show a clean split: when the care onset is small,
// matches are plentiful and the cheap no-new-vars sibling matchers win
// (osm_bt led Table 3 overall); when the care onset is large, matches are
// scarce, extra search is rewarded, and opt_lv is never beaten. Robust
// therefore always runs the sibling matcher, additionally runs level
// matching when the care onset exceeds OnsetThreshold (default 0.95), and
// returns the smallest result — with f itself as the final safeguard, so
// the result never exceeds |f| (the comparison trick legitimized after
// Proposition 6).
type Robust struct {
	// OnsetThreshold is the care-onset density above which level matching
	// is also tried (0 means the 0.95 default; negative means always).
	OnsetThreshold float64
}

// Name returns "robust".
func (r *Robust) Name() string { return "robust" }

// Minimize returns the best cover found by the selected strategies, never
// larger than f.
func (r *Robust) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	g, _ := r.steps(m, f, c, false)
	return g
}

// steps runs the sibling matcher and, above the onset threshold, the level
// matcher, both sharing whatever budget is attached. When the sibling pass
// aborts, the level pass is skipped (a crossed limit stays crossed).
func (r *Robust) steps(m *bdd.Manager, f, c bdd.Ref, catch bool) (bdd.Ref, AbortInfo) {
	if c == bdd.Zero {
		panic("core: robust called with empty care set")
	}
	threshold := r.OnsetThreshold
	if threshold == 0 {
		threshold = 0.95
	}
	best := f
	consider := func(g bdd.Ref) {
		if m.Size(g) < m.Size(best) {
			best = g
		}
	}
	g, info := runSteps(NewSiblingHeuristic(OSM, true, true), m, f, c, catch)
	consider(g)
	if !info.Aborted && m.Density(c) > threshold {
		g, info = (&OptLv{}).steps(m, f, c, catch)
		consider(g)
	}
	return best, info
}
