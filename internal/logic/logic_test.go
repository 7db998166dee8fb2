package logic

import (
	"math/rand"
	"strings"
	"testing"

	"bddmin/internal/bdd"
)

func buildFullAdder(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder("fa")
	a := b.Input("a")
	c := b.Input("b")
	cin := b.Input("cin")
	sum := b.Xor(a, c, cin)
	cout := b.Or(b.And(a, c), b.And(cin, b.Xor(a, c)))
	b.Output("sum", sum)
	b.Output("cout", cout)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// fullAdderBLIF is the full adder as WriteBLIF writes it: each gate is the
// table of its cover (Xor's parity minterms, And's one cube, Or's one
// literal per row). Builder.Output keeps a node's generated name.
const fullAdderBLIF = `.model fa
.inputs a b cin
.outputs n1 n5
.names a b cin n1
100 1
010 1
001 1
111 1
.names a b n2
11 1
.names a b n3
10 1
01 1
.names cin n3 n4
11 1
.names n2 n4 n5
1- 1
-1 1
.end
`

func TestBuilderFullAdder(t *testing.T) {
	net := buildFullAdder(t)
	if net.PrimaryInputCount() != 3 || net.OutputCount() != 2 || net.LatchCount() != 0 {
		t.Fatal("full adder shape")
	}
	for _, nd := range net.Nodes() {
		if nd.Type != Input && nd.Type != Table {
			t.Fatalf("node %s is a %v, want a table", nd.Name, nd.Type)
		}
	}
	var sb strings.Builder
	if err := WriteBLIF(&sb, net); err != nil {
		t.Fatal(err)
	}
	if sb.String() != fullAdderBLIF {
		t.Fatalf("full adder BLIF:\n%s\nwant:\n%s", sb.String(), fullAdderBLIF)
	}
	for k := 0; k < 8; k++ {
		in := []bool{k&4 != 0, k&2 != 0, k&1 != 0}
		_, out := StepState(net, nil, in)
		ones := 0
		for _, v := range in {
			if v {
				ones++
			}
		}
		if out[0] != (ones%2 == 1) || out[1] != (ones >= 2) {
			t.Fatalf("full adder wrong at input %d", k)
		}
	}
}

// TestGateSemanticsAgainstBDD checks every Builder gate against Go's
// boolean operators on every input assignment, through both Simulate and
// EvalBDD: Not, Buf and Mux, and the n-ary gates at 1 to 4 operands and
// at none, where each is its identity (And 1, Or 0, ...).
func TestGateSemanticsAgainstBDD(t *testing.T) {
	and := func(v []bool) bool {
		r := true
		for _, x := range v {
			r = r && x
		}
		return r
	}
	or := func(v []bool) bool {
		r := false
		for _, x := range v {
			r = r || x
		}
		return r
	}
	xor := func(v []bool) bool {
		r := false
		for _, x := range v {
			r = r != x
		}
		return r
	}
	type gate struct {
		name  string
		arity int
		build func(b *Builder, xs []*Node) *Node
		want  func(v []bool) bool
	}
	gates := []gate{
		{"not", 1, func(b *Builder, xs []*Node) *Node { return b.Not(xs[0]) }, func(v []bool) bool { return !v[0] }},
		{"buf", 1, func(b *Builder, xs []*Node) *Node { return b.Buf(xs[0]) }, func(v []bool) bool { return v[0] }},
		{"mux", 3, func(b *Builder, xs []*Node) *Node { return b.Mux(xs[0], xs[1], xs[2]) },
			func(v []bool) bool { return v[0] && v[1] || !v[0] && v[2] }},
	}
	for _, k := range []int{0, 1, 2, 3, 4} {
		gates = append(gates,
			gate{"and", k, func(b *Builder, xs []*Node) *Node { return b.And(xs...) }, and},
			gate{"or", k, func(b *Builder, xs []*Node) *Node { return b.Or(xs...) }, or},
			gate{"nand", k, func(b *Builder, xs []*Node) *Node { return b.Nand(xs...) }, func(v []bool) bool { return !and(v) }},
			gate{"nor", k, func(b *Builder, xs []*Node) *Node { return b.Nor(xs...) }, func(v []bool) bool { return !or(v) }},
			gate{"xor", k, func(b *Builder, xs []*Node) *Node { return b.Xor(xs...) }, xor},
			gate{"xnor", k, func(b *Builder, xs []*Node) *Node { return b.Xnor(xs...) }, func(v []bool) bool { return !xor(v) }},
		)
	}
	for _, g := range gates {
		b := NewBuilder(g.name)
		xs := make([]*Node, g.arity)
		for i := range xs {
			xs[i] = b.Input(string(rune('a' + i)))
		}
		nd := g.build(b, xs)
		b.Output("y", nd)
		b.MustBuild()
		if nd.Type != Table {
			t.Fatalf("%s/%d: node is a %v, want a table", g.name, g.arity, nd.Type)
		}

		m := bdd.New(g.arity)
		env := Env{}
		for i, x := range xs {
			env[x] = m.MkVar(bdd.Var(i))
		}
		f := EvalBDD(m, nd, env, make(map[*Node]bdd.Ref))
		asn := make([]bool, g.arity)
		for k := 0; k < 1<<g.arity; k++ {
			vals := make(map[*Node]bool, g.arity)
			for i, x := range xs {
				asn[i] = k&(1<<i) != 0
				vals[x] = asn[i]
			}
			want := g.want(asn)
			if got := Simulate(nd, vals, make(map[*Node]bool)); got != want {
				t.Fatalf("%s/%d at %v: Simulate %v, want %v", g.name, g.arity, asn, got, want)
			}
			if got := m.Eval(f, asn); got != want {
				t.Fatalf("%s/%d at %v: EvalBDD %v, want %v", g.name, g.arity, asn, got, want)
			}
		}
	}
}

func TestEvalBDDWideTable(t *testing.T) {
	// A Table node as wide as a synthesized FSM's: its rows are summed by
	// a balanced fold, which must still be exactly the row cover.
	const fanins, rows = 12, 200
	rng := rand.New(rand.NewSource(22))
	b := NewBuilder("wide")
	in := make([]*Node, fanins)
	for i := range in {
		in[i] = b.Input(string(rune('a' + i)))
	}
	cover := make([]string, rows)
	for r := range cover {
		row := make([]byte, fanins)
		for i := range row {
			row[i] = "01-"[rng.Intn(3)]
		}
		cover[r] = string(row)
	}
	tbl := b.Table(in, cover)
	b.Output("y", tbl)
	b.MustBuild()

	m := bdd.New(fanins)
	env := Env{}
	for i, nd := range in {
		env[nd] = m.MkVar(bdd.Var(i))
	}
	f := EvalBDD(m, tbl, env, make(map[*Node]bdd.Ref))
	asn := make([]bool, fanins)
	vals := make(map[*Node]bool, fanins)
	for k := 0; k < 1<<fanins; k++ {
		for i, nd := range in {
			asn[i] = k&(1<<i) != 0
			vals[nd] = asn[i]
		}
		if want := Simulate(tbl, vals, make(map[*Node]bool)); m.Eval(f, asn) != want {
			t.Fatalf("assignment %012b: bdd %v, simulation %v", k, !want, want)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	// Combinational cycle.
	b := NewBuilder("cyc")
	x := b.Input("x")
	n1 := b.And(x, x) // placeholder second operand replaced below
	n2 := b.Or(n1, x)
	n1.Fanin[1] = n2
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle must be rejected, got %v", err)
	}
	// Latch without next-state.
	b2 := NewBuilder("nolatch")
	b2.Latch("q", false)
	if _, err := b2.Build(); err == nil || !strings.Contains(err.Error(), "next-state") {
		t.Fatalf("latch without next state must be rejected, got %v", err)
	}
	// Bad table row.
	b3 := NewBuilder("bad")
	i3 := b3.Input("i")
	b3.Table([]*Node{i3}, []string{"10"})
	if _, err := b3.Build(); err == nil {
		t.Fatal("mismatched cover row must be rejected")
	}
	// Bad cover character.
	b4 := NewBuilder("badch")
	i4 := b4.Input("i")
	b4.Table([]*Node{i4}, []string{"x"})
	if _, err := b4.Build(); err == nil {
		t.Fatal("invalid cover character must be rejected")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	b := NewBuilder("dup")
	b.Input("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name must panic")
		}
	}()
	b.Input("x")
}

func TestSequentialCounterSimulation(t *testing.T) {
	// 3-bit counter with enable: verify 20 steps against arithmetic.
	b := NewBuilder("cnt3")
	en := b.Input("en")
	var qs []*Node
	for i := 0; i < 3; i++ {
		qs = append(qs, b.Latch("q"+string(rune('0'+i)), false))
	}
	carry := en
	for i := 0; i < 3; i++ {
		b.SetNext(qs[i], b.Xor(qs[i], carry))
		carry = b.And(carry, qs[i])
	}
	b.Output("msb", qs[2])
	net := b.MustBuild()

	state := InitialState(net)
	count := 0
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 20; step++ {
		en := rng.Intn(2) == 1
		state, _ = StepState(net, state, []bool{en})
		if en {
			count = (count + 1) % 8
		}
		got := 0
		for i := 2; i >= 0; i-- {
			got = got*2 + b2i(state[i])
		}
		if got != count {
			t.Fatalf("step %d: counter %d, want %d", step, got, count)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestStepStateDimensionPanics(t *testing.T) {
	net := buildFullAdder(t)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch must panic")
		}
	}()
	StepState(net, nil, []bool{true})
}

func TestEvalBDDMissingBindingPanics(t *testing.T) {
	b := NewBuilder("m")
	x := b.Input("x")
	net := b.MustBuild()
	_ = net
	m := bdd.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("missing env binding must panic")
		}
	}()
	EvalBDD(m, x, Env{}, make(map[*Node]bdd.Ref))
}

func TestGateTypeString(t *testing.T) {
	for gt, want := range map[GateType]string{
		Input: "input", Const: "const", Table: "table", GateType(99): "invalid",
	} {
		if gt.String() != want {
			t.Fatalf("GateType %d = %q", gt, gt.String())
		}
	}
}

func TestNetworkAccessorsAndStrings(t *testing.T) {
	net := buildFullAdder(t)
	if net.NodeCount() == 0 || len(net.Nodes()) != net.NodeCount() {
		t.Fatal("node accounting")
	}
	for gt := Input; gt <= Table; gt++ {
		if gt.String() == "invalid" {
			t.Fatalf("missing name for gate type %d", gt)
		}
	}
	// Single-operand n-ary collapses to a buffer: the table "1".
	b := NewBuilder("one")
	x := b.Input("x")
	if nd := b.And(x); nd.Type != Table || len(nd.Fanin) != 1 || nd.Fanin[0] != x ||
		len(nd.Cover) != 1 || nd.Cover[0] != "1" {
		t.Fatalf("unary And must be the buffer table of x, got %v %q", nd.Type, nd.Cover)
	}
}

func TestValidateArityErrors(t *testing.T) {
	mk := func(t GateType, fanin int, cover ...string) *Node {
		nd := &Node{Name: "n", Type: t, Cover: cover}
		for i := 0; i < fanin; i++ {
			nd.Fanin = append(nd.Fanin, &Node{Name: "i", Type: Input})
		}
		return nd
	}
	bad := []*Node{
		mk(Input, 1), mk(Const, 2), mk(Table, 2, "1"), mk(Table, 1, "10"),
		mk(Table, 0, "1"), mk(Table, 2, "11", "1x"), {Name: "z", Type: GateType(99)},
	}
	for _, nd := range bad {
		if checkArity(nd) == nil {
			t.Errorf("arity violation not caught for %v with %d fanins and cover %q", nd.Type, len(nd.Fanin), nd.Cover)
		}
	}
	for _, nd := range []*Node{mk(Table, 0), mk(Table, 3, "1-0", "---"), mk(Const, 0), mk(Input, 0)} {
		if err := checkArity(nd); err != nil {
			t.Errorf("well-formed %v rejected: %v", nd.Type, err)
		}
	}
}
