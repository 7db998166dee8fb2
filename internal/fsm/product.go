package fsm

import (
	"fmt"
	"sort"

	"bddmin/internal/bdd"
	"bddmin/internal/logic"
)

// Product is the synchronous product of two machines over shared inputs,
// prepared for image computation: clustered transition relations with an
// early-quantification schedule, the combined initial state, and the
// "miscompare" predicate (some input makes the outputs differ).
type Product struct {
	M *bdd.Manager
	A *Machine
	B *Machine

	rels     []bdd.Ref // per-latch transition relations, conjunction order
	dieAt    []bdd.Ref // cube of (input ∪ present) vars quantified after rels[i]
	initial  bdd.Ref
	bad      bdd.Ref // states from which some input shows an output mismatch
	renameYX map[bdd.Var]bdd.Var
	allXY    []bdd.Var
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

	// Transition relations, interleaving the two machines' latches the
	// same way the variables are interleaved.
	ra, rb := ma.TransitionRelations(m), mb.TransitionRelations(m)
	for i := 0; i < len(ra) || i < len(rb); i++ {
		if i < len(ra) {
			p.rels = append(p.rels, ra[i])
		}
		if i < len(rb) {
			p.rels = append(p.rels, rb[i])
		}
	}
	p.renameYX = make(map[bdd.Var]bdd.Var)
	var xs []bdd.Var
	for _, mc := range []*Machine{ma, mb} {
		for i := range mc.StateVars {
			p.renameYX[mc.NextVars[i]] = mc.StateVars[i]
			xs = append(xs, mc.StateVars[i])
		}
	}
	p.allXY = append(append([]bdd.Var{}, vb.Inputs...), xs...)
	p.buildQuantSchedule()
	return p, nil
}

// buildQuantSchedule computes, for each relation position, the cube of
// input/present variables whose last use is that relation, enabling early
// quantification during image computation (variables no longer referenced
// by later conjuncts are abstracted immediately).
func (p *Product) buildQuantSchedule() {
	m := p.M
	quantifiable := make(map[bdd.Var]bool)
	for _, v := range p.A.InputVars {
		quantifiable[v] = true
	}
	for _, v := range p.A.StateVars {
		quantifiable[v] = true
	}
	for _, v := range p.B.StateVars {
		quantifiable[v] = true
	}
	// lastUse −1 marks a variable that no relation uses. It is in no
	// dieAt cube; Image removes it through leftoverQuantCube.
	lastUse := make(map[bdd.Var]int)
	for v := range quantifiable {
		lastUse[v] = -1
	}
	for i, r := range p.rels {
		for _, v := range m.Support(r) {
			if quantifiable[v] {
				lastUse[v] = i
			}
		}
	}
	p.dieAt = make([]bdd.Ref, len(p.rels))
	byPos := make([][]bdd.Var, len(p.rels))
	for v, i := range lastUse {
		if i >= 0 {
			byPos[i] = append(byPos[i], v)
		}
	}
	for i := range p.dieAt {
		sort.Slice(byPos[i], func(a, b int) bool { return byPos[i][a] < byPos[i][b] })
		p.dieAt[i] = m.CubeVars(byPos[i]...)
	}
}

// Image computes the successor states of the set S(x): the set
// ∃w,x [ S(x) ∧ T(w,x,y) ] renamed from next to present variables.
func (p *Product) Image(S bdd.Ref) bdd.Ref {
	m := p.M
	cur := S
	for i, r := range p.rels {
		cur = m.AndExists(cur, r, p.dieAt[i])
		if cur == bdd.Zero {
			return bdd.Zero
		}
	}
	// Any scheduled variable that appears in no relation at all (constant
	// or unused input) may survive in S's support; clear the stragglers.
	if extra := p.leftoverQuantCube(cur); extra != bdd.One {
		cur = m.Exists(cur, extra)
	}
	return m.RenameMonotone(cur, p.renameYX)
}

func (p *Product) leftoverQuantCube(f bdd.Ref) bdd.Ref {
	m := p.M
	var left []bdd.Var
	for _, v := range m.Support(f) {
		if _, isNext := p.renameYX[v]; !isNext {
			left = append(left, v)
		}
	}
	return m.CubeVars(left...)
}

// Initial returns the combined reset state cube.
func (p *Product) Initial() bdd.Ref { return p.initial }

// Bad returns the miscompare predicate over the product state space.
func (p *Product) Bad() bdd.Ref { return p.bad }

// StateVarsCube returns the cube of all present-state variables of both
// machines.
func (p *Product) StateVarsCube() bdd.Ref {
	var xs []bdd.Var
	xs = append(xs, p.A.StateVars...)
	xs = append(xs, p.B.StateVars...)
	return p.M.CubeVars(xs...)
}
