package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// Builder constructs Networks programmatically; the benchmark generators
// in package circuits are written against it. Each gate method (Not, Buf,
// And, Or, Nand, Nor, Xor, Xnor, Mux) adds one Table node holding the
// gate's cover, so a built network is made of the same tables a parsed
// BLIF file is. Node names are optional (empty names get generated ones)
// but must be unique when given.
type Builder struct {
	net   *Network
	names map[string]*Node
	auto  int
}

// NewBuilder starts a network with the given model name.
func NewBuilder(name string) *Builder {
	return &Builder{
		net:   &Network{Name: name},
		names: make(map[string]*Node),
	}
}

func (b *Builder) add(nd *Node) *Node {
	if nd.Name == "" {
		b.auto++
		nd.Name = fmt.Sprintf("n%d", b.auto)
	}
	if _, dup := b.names[nd.Name]; dup {
		panic(fmt.Sprintf("logic: duplicate node name %q", nd.Name))
	}
	b.names[nd.Name] = nd
	b.net.nodes = append(b.net.nodes, nd)
	return nd
}

// Input declares a primary input.
func (b *Builder) Input(name string) *Node {
	nd := b.add(&Node{Name: name, Type: Input})
	b.net.Inputs = append(b.net.Inputs, nd)
	return nd
}

// Const returns a constant node.
func (b *Builder) Const(v bool) *Node {
	return b.add(&Node{Type: Const, Value: v})
}

// Not returns the complement of a: the table "0".
func (b *Builder) Not(a *Node) *Node { return b.Table([]*Node{a}, []string{"0"}) }

// Buf returns a buffer of a (an alias node): the table "1".
func (b *Builder) Buf(a *Node) *Node { return b.Table([]*Node{a}, []string{"1"}) }

// And returns the conjunction of the operands: one cube of 1s.
func (b *Builder) And(xs ...*Node) *Node { return b.Table(xs, []string{strings.Repeat("1", len(xs))}) }

// Or returns the disjunction of the operands: one row per operand, holding
// its positive literal.
func (b *Builder) Or(xs ...*Node) *Node { return b.Table(xs, literals(len(xs), '1')) }

// Nand returns the complemented conjunction: one row per operand, holding
// its negative literal.
func (b *Builder) Nand(xs ...*Node) *Node { return b.Table(xs, literals(len(xs), '0')) }

// Nor returns the complemented disjunction: one cube of 0s.
func (b *Builder) Nor(xs ...*Node) *Node { return b.Table(xs, []string{strings.Repeat("0", len(xs))}) }

// Xor returns the parity of the operands: its odd minterms.
func (b *Builder) Xor(xs ...*Node) *Node { return b.Table(xs, parity(len(xs), true)) }

// Xnor returns the complemented parity: its even minterms.
func (b *Builder) Xnor(xs ...*Node) *Node { return b.Table(xs, parity(len(xs), false)) }

// literals returns k rows over k fanins, row i holding fanin i's literal
// lit and don't cares elsewhere.
func literals(k int, lit byte) []string {
	rows := make([]string, k)
	for i := range rows {
		row := []byte(strings.Repeat("-", k))
		row[i] = lit
		rows[i] = string(row)
	}
	return rows
}

// parity returns the minterms over k fanins with an odd (or even) number
// of ones, in binary order with fanin 0 as the low bit. It panics beyond
// 16 fanins, where the cover would hold 2¹⁶ or more rows.
func parity(k int, odd bool) []string {
	if k > 16 {
		panic(fmt.Sprintf("logic: parity of %d operands is too wide for a cover", k))
	}
	var rows []string
	row := make([]byte, k)
	for mask := 0; mask < 1<<k; mask++ {
		if (bits.OnesCount(uint(mask))%2 == 1) != odd {
			continue
		}
		for i := range row {
			row[i] = '0' + byte(mask>>i&1)
		}
		rows = append(rows, string(row))
	}
	return rows
}

// Mux returns "if sel then t else e": the table 11-, 0-1.
func (b *Builder) Mux(sel, t, e *Node) *Node {
	return b.Table([]*Node{sel, t, e}, []string{"11-", "0-1"})
}

// Table adds a SOP-cover node over the fanins.
func (b *Builder) Table(fanin []*Node, cover []string) *Node {
	return b.add(&Node{Type: Table, Fanin: append([]*Node(nil), fanin...), Cover: append([]string(nil), cover...)})
}

// Latch declares a state element with the given name and reset value and
// returns its present-state node. The next-state function is attached
// later with SetNext (allowing feedback).
func (b *Builder) Latch(name string, init bool) *Node {
	out := b.add(&Node{Name: name, Type: Input})
	b.net.Latches = append(b.net.Latches, &Latch{Name: name, Output: out, Init: init})
	return out
}

// SetNext attaches the next-state function to the latch whose
// present-state node is q. It panics if q is not a latch output.
func (b *Builder) SetNext(q, next *Node) {
	for _, l := range b.net.Latches {
		if l.Output == q {
			l.Input = next
			return
		}
	}
	panic(fmt.Sprintf("logic: %q is not a latch output", q.Name))
}

// Output declares a primary output driven by nd.
func (b *Builder) Output(name string, nd *Node) {
	if nd.Name == "" {
		nd.Name = name
	}
	b.net.Outputs = append(b.net.Outputs, nd)
}

// Build validates and returns the network.
func (b *Builder) Build() (*Network, error) {
	if err := b.net.Validate(); err != nil {
		return nil, err
	}
	return b.net, nil
}

// MustBuild is Build, panicking on error; for generators whose structure
// is correct by construction.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}
