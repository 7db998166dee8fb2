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

func TestBuilderFullAdder(t *testing.T) {
	net := buildFullAdder(t)
	if net.PrimaryInputCount() != 3 || net.OutputCount() != 2 || net.LatchCount() != 0 {
		t.Fatal("full adder shape")
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

func TestGateSemanticsAgainstBDD(t *testing.T) {
	// Every gate type: simulate vs. symbolic evaluation.
	b := NewBuilder("gates")
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	nodes := []*Node{
		b.And(x, y), b.Or(x, y), b.Nand(x, y, z), b.Nor(x, y), b.Xor(x, y, z),
		b.Xnor(x, y), b.Not(x), b.Buf(y), b.Mux(x, y, z),
		b.Table([]*Node{x, y, z}, []string{"1-0", "01-"}),
		b.Const(true), b.Const(false),
	}
	for i, nd := range nodes {
		b.Output("o"+string(rune('a'+i)), nd)
	}
	net := b.MustBuild()

	m := bdd.New(3)
	env := Env{x: m.MkVar(0), y: m.MkVar(1), z: m.MkVar(2)}
	memo := make(map[*Node]bdd.Ref)
	for k := 0; k < 8; k++ {
		vals := map[*Node]bool{x: k&4 != 0, y: k&2 != 0, z: k&1 != 0}
		asn := []bool{k&4 != 0, k&2 != 0, k&1 != 0}
		simMemo := make(map[*Node]bool)
		for _, nd := range net.Outputs {
			want := Simulate(nd, vals, simMemo)
			got := m.Eval(EvalBDD(m, nd, env, memo), asn)
			if got != want {
				t.Fatalf("node %s (%v): sim %v, bdd %v at input %d", nd.Name, nd.Type, want, got, k)
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
		Input: "input", Const: "const", And: "and", Table: "table", Mux: "mux",
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
	if GateType(99).String() != "invalid" {
		t.Fatal("invalid gate type name")
	}
	// Single-operand n-ary collapses to a buffer.
	b := NewBuilder("one")
	x := b.Input("x")
	if nd := b.And(x); nd.Type != Buf {
		t.Fatal("unary And must become Buf")
	}
}

func TestValidateArityErrors(t *testing.T) {
	mk := func(t GateType, fanin int) *Node {
		nd := &Node{Name: "n", Type: t}
		for i := 0; i < fanin; i++ {
			nd.Fanin = append(nd.Fanin, &Node{Name: "i", Type: Input})
		}
		return nd
	}
	bad := []*Node{
		mk(Input, 1), mk(Const, 2), mk(Not, 2), mk(Buf, 0),
		mk(Mux, 2), mk(And, 1), mk(Or, 0), {Name: "z", Type: GateType(99)},
	}
	for _, nd := range bad {
		if checkArity(nd) == nil {
			t.Errorf("arity violation not caught for %v with %d fanins", nd.Type, len(nd.Fanin))
		}
	}
}
