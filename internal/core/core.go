// Package core implements the heuristic BDD minimization framework of
// Shiple, Hojati, Sangiovanni-Vincentelli and Brayton, "Heuristic
// Minimization of BDDs Using Don't Cares" (DAC 1994).
//
// The problem: given an incompletely specified function [f, c] — care about
// the value of f where the care function c is 1 — find a cover g with
// f·c ≤ g ≤ f + ¬c whose BDD is small, under a fixed variable ordering
// (the exact version, EBM, is NP-hard-flavored: its decision problem is in
// NP and its exact complexity is open).
//
// The framework decomposes every heuristic into two choices:
//
//  1. a matching criterion (Criterion): how much don't-care freedom may be
//     spent to make two incompletely specified functions equal — OSDM, OSM
//     or TSM, in increasing strength; and
//  2. which functions to try to match — the two children of each node
//     (sibling matching, SiblingHeuristic, Figure 2 of the paper) or the
//     functions pointed to from at or above a level (level matching,
//     MinimizeAtLevel, Section 3.3).
//
// The classical constrain (generalized cofactor) and restrict operators
// fall out as the OSDM instantiations of the sibling matcher; six further
// sibling heuristics and the level heuristic opt_lv complete the paper's
// Table 2 suite, all available through Registry. A Scheduler (Section 3.4)
// composes the transformations window by window, spending safe (OSM)
// freedom before aggressive (TSM) freedom.
//
// The package also provides the paper's cube lower bound over every cube
// of the care set (Section 4.1.1, justified by Theorem 7: constrain is
// optimal when the care set is a cube) and a brute-force exact minimizer
// usable as a test oracle on small instances.
package core

import "bddmin/internal/bdd"

// ISF is an incompletely specified function [F, C]: the onset is F·C, the
// offset is ¬F·C, and the don't-care set is ¬C. The paper writes [f; c].
type ISF struct {
	F bdd.Ref // function values (meaningful where C holds)
	C bdd.Ref // care function
}

// Cover reports whether g covers the incompletely specified function
// (Definition 2): F·C ≤ g ≤ F + ¬C.
func (i ISF) Cover(m *bdd.Manager, g bdd.Ref) bool { return m.Cover(g, i.F, i.C) }

// Trivial classifies the special cases every heuristic solves exactly
// (Section 3.1): if C is Zero any function covers (we return Zero); if the
// care set is inside the onset the constant One covers; if it is inside the
// offset the constant Zero covers.
func (i ISF) Trivial(m *bdd.Manager) (g bdd.Ref, ok bool) {
	switch {
	case i.C == bdd.Zero:
		return bdd.Zero, true
	case m.Leq(i.C, i.F):
		return bdd.One, true
	case m.Disjoint(i.C, i.F):
		return bdd.Zero, true
	}
	return bdd.Zero, false
}

// Interval converts a function interval (fmin, fmax), fmin ≤ fmax, into an
// ISF instance per Section 2: c = fmin + ¬fmax and f may be any function in
// the interval (we use fmin). It panics if fmin does not imply fmax.
func Interval(m *bdd.Manager, fmin, fmax bdd.Ref) ISF {
	if !m.Leq(fmin, fmax) {
		panic("core: Interval requires fmin ≤ fmax")
	}
	return ISF{F: fmin, C: m.Or(fmin, fmax.Not())}
}

// Minimizer is a heuristic (or pseudo-heuristic) for the EBM problem.
type Minimizer interface {
	// Name returns the identifier used in the paper's tables, e.g.
	// "const", "restr", "osm_bt", "opt_lv".
	Name() string
	// Minimize returns a cover of [f, c]. It panics if c is Zero (the
	// trivial instance is excluded upstream, as in the paper).
	Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref
}
