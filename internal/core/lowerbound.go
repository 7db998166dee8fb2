package core

import "bddmin/internal/bdd"

// maxBoundPairs caps the (cofactor of f, node of c) pairs one LowerBound
// walk visits. The suite's largest walk needs 1775; the cap only stops
// instances built to blow the walk up, such as f = x0·x1 + x2·x3 + … with
// c the parity of the odd variables, whose k terms need 2^k − 1 pairs.
const maxBoundPairs = 1 << 14

// LowerBound computes a lower bound on the minimum BDD size of any cover
// of [f, c] by the cube technique of Section 4.1.1. For every cube p of
// the care function c (a 1-path of c's BDD), the covers of [f, c] are a
// subset of the covers of [f, p]; by Theorem 7, constrain is an exact
// minimizer when the care set is a cube, so |constrain(f, p)| is a lower
// bound, and the maximum over the cubes is reported.
//
// Constraining by a cube is cofactoring by its literals, so one
// depth-first walk down c, cofactoring f by each branch's literal and
// visiting every (cofactor, c-node) pair once, covers every 1-path of c
// without listing them. A walk stopped by maxBoundPairs still reports a
// maximum over 1-paths of c, so the bound stays sound.
//
// The bound is at least 1 (the terminal node exists in every BDD). If c is
// Zero, 1 is returned (any function, including a constant, covers).
func LowerBound(m *bdd.Manager, f, c bdd.Ref) int {
	lb, _ := lowerBound(m, f, c, maxBoundPairs)
	return lb
}

// lowerBound is LowerBound with the pair cap as a parameter; it also
// returns the number of pairs at non-constant c-nodes that it visited.
func lowerBound(m *bdd.Manager, f, c bdd.Ref, maxPairs int) (lb, pairs int) {
	type pair struct{ g, c bdd.Ref }
	seen := make(map[pair]bool)
	lb = 1
	var walk func(g, c bdd.Ref) bool
	walk = func(g, c bdd.Ref) bool {
		switch {
		case c == bdd.Zero:
			return true
		case c == bdd.One:
			lb = max(lb, m.Size(g))
			return true
		case seen[pair{g, c}]:
			return true
		case len(seen) == maxPairs:
			return false
		}
		seen[pair{g, c}] = true
		v := m.TopVar(c)
		ct, ce := m.Branches(c)
		// A Zero branch holds no 1-path, so its cofactor is never built.
		return (ct == bdd.Zero || walk(m.Constrain(g, m.MkVar(v)), ct)) &&
			(ce == bdd.Zero || walk(m.Constrain(g, m.MkNotVar(v)), ce))
	}
	walk(f, c)
	return lb, len(seen)
}
