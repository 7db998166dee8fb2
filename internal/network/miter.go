package network

import (
	"fmt"

	"bddmin/internal/bdd"
	"bddmin/internal/logic"
)

// miter proves two networks observably equivalent on m, which it Resets
// first: same primary-output functions and same next-state functions, over
// shared input and present-state variables bound by declaration order. It
// returns nil when equivalent and an error naming the first differing
// observable otherwise. (The classical miter XORs each output pair and
// checks the disjunction for Zero; with a canonical BDD per output,
// comparing the Refs directly is the same test, and the failing observable
// falls out for free.) It evaluates the covers with logic.EvalBDD, so the
// check does not depend on the compiled lists windows evaluate.
func miter(m *bdd.Manager, a, b *logic.Network) error {
	if len(a.Inputs) != len(b.Inputs) {
		return fmt.Errorf("network: miter: input count %d vs %d", len(a.Inputs), len(b.Inputs))
	}
	if len(a.Outputs) != len(b.Outputs) {
		return fmt.Errorf("network: miter: output count %d vs %d", len(a.Outputs), len(b.Outputs))
	}
	if len(a.Latches) != len(b.Latches) {
		return fmt.Errorf("network: miter: latch count %d vs %d", len(a.Latches), len(b.Latches))
	}

	nvars := len(a.Inputs) + len(a.Latches)
	if nvars == 0 {
		nvars = 1
	}
	m.Reset(nvars)
	memoA := make(map[*logic.Node]bdd.Ref, nvars)
	memoB := make(map[*logic.Node]bdd.Ref, nvars)
	v := 0
	for i := range a.Inputs {
		r := m.MkVar(bdd.Var(v))
		memoA[a.Inputs[i]] = r
		memoB[b.Inputs[i]] = r
		v++
	}
	for i := range a.Latches {
		r := m.MkVar(bdd.Var(v))
		memoA[a.Latches[i].Output] = r
		memoB[b.Latches[i].Output] = r
		v++
	}

	for i := range a.Outputs {
		fa := logic.EvalBDD(m, a.Outputs[i], nil, memoA)
		fb := logic.EvalBDD(m, b.Outputs[i], nil, memoB)
		if fa != fb {
			return fmt.Errorf("network: miter: output %q differs", a.Outputs[i].Name)
		}
	}
	for i := range a.Latches {
		fa := logic.EvalBDD(m, a.Latches[i].Input, nil, memoA)
		fb := logic.EvalBDD(m, b.Latches[i].Input, nil, memoB)
		if fa != fb {
			return fmt.Errorf("network: miter: next-state of latch %q differs", a.Latches[i].Output.Name)
		}
	}
	return nil
}
