package fsm

import (
	"fmt"

	"bddmin/internal/bdd"
	"bddmin/internal/logic"
)

// Product is the synchronous product of two machines over shared inputs:
// the two compiled machines and the combined initial state. Images are
// computed by ImageFV. No miscompare predicate is built: the traversal
// tests each new frontier with agrees, which runs the OSM match kernel,
// and FindCounterexample builds bad states only after a miscompare.
type Product struct {
	M *bdd.Manager
	A *Machine
	B *Machine

	initial bdd.Ref
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
	return p, nil
}

// agrees reports whether no state of S miscompares: under every input,
// each output of A equals the same output of B at every state of S. With
// the care set given twice, [oA_i, S] OSM-matches [oB_i, S] (Definition
// 5) exactly when (oA_i ⊕ oB_i)·S = 0, so the match kernel answers
// without building a node; its S ≤ S half exits at once.
func (p *Product) agrees(S bdd.Ref) bool {
	for i, oa := range p.A.Outputs {
		if !p.M.MatchOSM(oa, S, p.B.Outputs[i], S) {
			return false
		}
	}
	return true
}
