package logic

import (
	"fmt"
	"testing"
)

// rippleAdder builds a w-bit combinational ripple-carry adder with the
// operands declared in blocked order (all of x, then all of y) — the
// worst case for the declaration order and the classic win for DFS
// interleaving.
func rippleAdder(w int) *Network {
	b := NewBuilder(fmt.Sprintf("add%d", w))
	xs := make([]*Node, w)
	ys := make([]*Node, w)
	for i := 0; i < w; i++ {
		xs[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < w; i++ {
		ys[i] = b.Input(fmt.Sprintf("y%d", i))
	}
	carry := b.Const(false)
	for i := 0; i < w; i++ {
		p := b.Xor(xs[i], ys[i])
		b.Output(fmt.Sprintf("s%d", i), b.Xor(p, carry))
		carry = b.Or(b.And(xs[i], ys[i]), b.And(p, carry))
	}
	b.Output("cout", carry)
	return b.MustBuild()
}

func TestSuggestOrderInterleavesAdder(t *testing.T) {
	net := rippleAdder(8)
	decl, dfs := CompareOrders(net)
	// Blocked order blows up (grows exponentially in w); interleaved DFS
	// order is linear. At w=8 the gap is already decisive.
	if dfs*2 >= decl {
		t.Fatalf("DFS order (%d nodes) must clearly beat blocked declaration order (%d nodes)", dfs, decl)
	}
	if dfs > 20*8 {
		t.Fatalf("interleaved adder should be linear-sized, got %d nodes", dfs)
	}
	// The suggested order starts with the low-order operand pair.
	order := SuggestOrder(net)
	if order[0].Name != "x0" || order[1].Name != "y0" {
		t.Fatalf("DFS order must interleave operands, starts %s %s", order[0].Name, order[1].Name)
	}
}

func TestSuggestOrderCoversAllLeaves(t *testing.T) {
	// Sequential network with an input never used by any cone.
	b := NewBuilder("cov")
	used := b.Input("used")
	_ = b.Input("unused")
	q := b.Latch("q", false)
	b.SetNext(q, b.Xor(q, used))
	b.Output("o", q)
	net := b.MustBuild()
	order := SuggestOrder(net)
	if len(order) != 3 {
		t.Fatalf("order has %d leaves, want 3 (incl. unused input)", len(order))
	}
	seen := map[string]bool{}
	for _, nd := range order {
		if seen[nd.Name] {
			t.Fatal("leaf listed twice")
		}
		seen[nd.Name] = true
	}
	for _, want := range []string{"used", "unused", "q"} {
		if !seen[want] {
			t.Fatalf("leaf %q missing from order", want)
		}
	}
	if len(DeclarationOrder(net)) != 3 {
		t.Fatal("declaration order must list all leaves")
	}
}

func TestBuildOutputBDDsSemantics(t *testing.T) {
	// The compiled functions must agree with simulation under any order.
	net := rippleAdder(3)
	for _, order := range [][]*Node{DeclarationOrder(net), SuggestOrder(net)} {
		m, funcs, shared := BuildOutputBDDs(net, order)
		if shared < 2 {
			t.Fatal("implausible shared size")
		}
		pos := make(map[*Node]int)
		for i, leaf := range order {
			pos[leaf] = i
		}
		for k := 0; k < 64; k++ {
			values := map[*Node]bool{}
			asn := make([]bool, len(order))
			for i, in := range net.Inputs {
				v := k&(1<<i) != 0
				values[in] = v
				asn[pos[in]] = v
			}
			simMemo := map[*Node]bool{}
			for i, o := range net.Outputs {
				want := Simulate(o, values, simMemo)
				if got := m.Eval(funcs[i], asn); got != want {
					t.Fatalf("order mismatch on output %d at input %d", i, k)
				}
			}
		}
	}
}
