package fsm

import "bddmin/internal/bdd"

// Functional-vector image computation after Coudert, Berthet and Madre:
// the image of the state set S under the next-state vector δ equals the
// range of the constrained vector δ ↓ S. This is the method verify_fsm -m
// product uses in SIS, and its per-latch constrain calls δ_i ↓ S are the
// bulk of the minimization instances the paper measures (their care
// function is a sparse state set, which is why the experiments' calls
// cluster in the c_onset_size < 5% bucket).
//
// bdd.Range computes the range by the standard recursive output splitting:
// for the first function g of the vector, range(g, rest) =
// y·range(rest ↓ g) + ¬y·range(rest ↓ ¬g), where ↓ is the generalized
// cofactor. The cofactor's image property (footnote 1 of the paper) is
// essential here: an arbitrary cover of [rest_i, g] would give a wrong
// image, which is precisely why the instrumented application must keep
// returning constrain's result.

// ConstrainObserver is notified of every top-level δ_i ↓ S constrain call
// performed by the functional-vector image computation, before the
// operation runs. It must not mutate f or c; the traversal always uses the
// true constrain result.
type ConstrainObserver func(m *bdd.Manager, f, c bdd.Ref)

// ImageFV computes the successor states of S via the constrained
// functional vector, notifying obs (if non-nil) of each per-latch
// constrain instance. The range is taken over the present-state
// variables, so the image comes out as a set of present states and needs
// no rename.
func (p *Product) ImageFV(S bdd.Ref, obs ConstrainObserver) bdd.Ref {
	m := p.M
	if S == bdd.Zero {
		return bdd.Zero
	}
	// Combined next-state vector in ascending state-variable order.
	funcs, vars := p.nextVector()
	constrained := make([]bdd.Ref, len(funcs))
	for i, d := range funcs {
		if obs != nil && S != bdd.One {
			obs(m, d, S)
		}
		constrained[i] = m.Constrain(d, S)
	}
	return m.Range(constrained, vars)
}

// nextVector returns the product's next-state functions ordered by the
// present-state variable of their latch, with those variables, so the
// range construction can build nodes in variable order.
func (p *Product) nextVector() ([]bdd.Ref, []bdd.Var) {
	type el struct {
		f bdd.Ref
		v bdd.Var
	}
	var els []el
	for _, mc := range []*Machine{p.A, p.B} {
		for i := range mc.Next {
			els = append(els, el{mc.Next[i], mc.StateVars[i]})
		}
	}
	// Insertion sort by variable (lists are short).
	for i := 1; i < len(els); i++ {
		for j := i; j > 0 && els[j].v < els[j-1].v; j-- {
			els[j], els[j-1] = els[j-1], els[j]
		}
	}
	fs := make([]bdd.Ref, len(els))
	vs := make([]bdd.Var, len(els))
	for i, e := range els {
		fs[i] = e.f
		vs[i] = e.v
	}
	return fs, vs
}
