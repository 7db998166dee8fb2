package fsm

import (
	"fmt"

	"bddmin/internal/bdd"
	"bddmin/internal/logic"
)

// Product is the synchronous product of two machines over shared inputs:
// the two compiled machines, the combined initial state, and the
// "miscompare" predicate (some input makes the outputs differ). Images
// are computed by ImageFV.
type Product struct {
	M *bdd.Manager
	A *Machine
	B *Machine

	initial bdd.Ref
	bad     bdd.Ref // states from which some input shows an output mismatch
}

// NewProduct compiles the two networks into one Manager (which must be
// fresh) and prepares the product. The networks must agree on input and
// output counts.
func NewProduct(m *bdd.Manager, a, b *logic.Network) (*Product, error) {
	if a.PrimaryInputCount() != b.PrimaryInputCount() {
		return nil, fmt.Errorf("fsm: input count mismatch %d vs %d",
			a.PrimaryInputCount(), b.PrimaryInputCount())
	}
	if a.OutputCount() != b.OutputCount() {
		return nil, fmt.Errorf("fsm: output count mismatch %d vs %d",
			a.OutputCount(), b.OutputCount())
	}
	vb := AllocateVars(m, a.PrimaryInputCount(), a.LatchCount(), b.LatchCount())
	ma, err := Compile(m, a, vb, 0)
	if err != nil {
		return nil, err
	}
	mb, err := Compile(m, b, vb, 1)
	if err != nil {
		return nil, err
	}
	p := &Product{M: m, A: ma, B: mb}
	p.initial = m.And(ma.Init, mb.Init)

	// Miscompare: ∃w. ∨_i (oA_i ⊕ oB_i), computed as ∨_i ∃w. (oA_i ⊕ oB_i)
	// because ∃ distributes over ∨. Each output's XOR loses the inputs
	// before any sum is formed, and OrN folds the quantified terms as a
	// balanced tree.
	inputs := m.CubeVars(vb.Inputs...)
	diffs := make([]bdd.Ref, len(ma.Outputs))
	for i := range ma.Outputs {
		diffs[i] = m.Exists(m.Xor(ma.Outputs[i], mb.Outputs[i]), inputs)
	}
	p.bad = m.OrN(diffs...)
	return p, nil
}
