package core

import "bddmin/internal/bdd"

// funcMinimizer adapts a plain function to the Minimizer interface; used
// for the pseudo-heuristics.
type funcMinimizer struct {
	name string
	fn   func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref
}

func (h *funcMinimizer) Name() string { return h.name }
func (h *funcMinimizer) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	return h.fn(m, f, c)
}

// FOrig is the pseudo-heuristic that returns f itself — always a valid
// cover, the baseline all reductions in the paper are measured against.
func FOrig() Minimizer {
	return &funcMinimizer{name: "f_orig", fn: func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
		return f
	}}
}

// FAndC is the pseudo-heuristic returning the onset bound f·c (the
// smallest cover pointwise; usually a poor BDD, per the paper's results).
func FAndC() Minimizer {
	return &funcMinimizer{name: "f_and_c", fn: func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
		return m.And(f, c)
	}}
}

// FOrNC is the pseudo-heuristic returning the upper bound f + ¬c.
func FOrNC() Minimizer {
	return &funcMinimizer{name: "f_or_nc", fn: func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
		return m.Or(f, c.Not())
	}}
}

// Constrain exposes the classical constrain operator as a Minimizer (it is
// identical to NewSiblingHeuristic(OSDM, false, false); the BDD package's
// direct recursion is used for speed, and the identity is verified by
// tests).
func Constrain() Minimizer {
	return &funcMinimizer{name: "const", fn: func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
		return m.Constrain(f, c)
	}}
}

// Restrict exposes the classical restrict operator as a Minimizer
// (identical to NewSiblingHeuristic(OSDM, false, true)).
func Restrict() Minimizer {
	return &funcMinimizer{name: "restr", fn: func(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
		return m.Restrict(f, c)
	}}
}

// Registry returns the nine real heuristics evaluated in the paper, in the
// order of Table 2 followed by opt_lv: const, restr, osm_td, osm_nv,
// osm_cp, osm_bt, tsm_td, tsm_cp, opt_lv.
func Registry() []Minimizer {
	return []Minimizer{
		Constrain(),
		Restrict(),
		NewSiblingHeuristic(OSM, false, false), // osm_td
		NewSiblingHeuristic(OSM, false, true),  // osm_nv
		NewSiblingHeuristic(OSM, true, false),  // osm_cp
		NewSiblingHeuristic(OSM, true, true),   // osm_bt
		NewSiblingHeuristic(TSM, false, false), // tsm_td
		NewSiblingHeuristic(TSM, true, false),  // tsm_cp
		&OptLv{},
	}
}

// RegistryWithBounds returns Registry plus the three pseudo-heuristics of
// the experiments: f_and_c, f_or_nc and f_orig.
func RegistryWithBounds() []Minimizer {
	return append(Registry(), FAndC(), FOrNC(), FOrig())
}

// ByName returns the minimizer named name in RegistryWithBounds or
// ExtendedRegistry, or the default Scheduler under its own name or the
// alias "sched", or nil.
func ByName(name string) Minimizer {
	for _, h := range append(RegistryWithBounds(), ExtendedRegistry()...) {
		if h.Name() == name {
			return h
		}
	}
	if s := (&Scheduler{}); s.Name() == name || name == "sched" {
		return s
	}
	return nil
}

// ExtendedRegistry returns the paper's heuristics plus the extensions this
// implementation adds on top: the Section 3.4 scheduler and the robust
// combined heuristic the conclusion proposes.
func ExtendedRegistry() []Minimizer {
	return append(Registry(), &Scheduler{SkipLevelMatching: true}, &Robust{})
}

// Minimize is the package-level convenience entry point: it minimizes
// [f, c] with the heuristic the paper recommends overall, osm_bt ("it
// combines good minimization with small runtimes"), and returns the
// smaller of the result and f itself — the safeguard suggested after
// Proposition 6, making the overall algorithm never increase the size.
func Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	if c == bdd.Zero {
		return bdd.Zero
	}
	g := NewSiblingHeuristic(OSM, true, true).Minimize(m, f, c)
	if m.Size(g) > m.Size(f) {
		return f
	}
	return g
}
