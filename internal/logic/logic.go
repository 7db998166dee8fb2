// Package logic provides a Boolean network substrate: sequential circuits
// whose logic is made of single-output sum-of-products tables (the BLIF
// .names construct) and latches, together with a builder API whose gate
// methods emit those tables, a BLIF-subset parser and writer, simulation,
// and symbolic evaluation into BDDs.
//
// The experiment pipeline uses it as the source of finite state machines:
// benchmark circuits (package circuits) are built as Networks, compiled to
// BDD next-state and output functions (package fsm), and traversed
// symbolically, generating the BDD minimization instances the paper
// measures.
package logic

import "fmt"

// GateType enumerates the node kinds of a network.
type GateType int

// Node kinds. Input nodes have no fanin; Const nodes hold a fixed value;
// Table nodes carry a single-output sum-of-products cover over their
// fanins (the BLIF .names construct). Every internal node is a Table: the
// Builder's gate methods emit the gate's cover.
const (
	Input GateType = iota
	Const
	Table
)

func (g GateType) String() string {
	switch g {
	case Input:
		return "input"
	case Const:
		return "const"
	case Table:
		return "table"
	}
	return "invalid"
}

// Node is a vertex of the network: a primary input, a constant, or a
// cube-cover table. Latch outputs are represented as Input nodes (their
// value is a state variable, not a combinational function).
type Node struct {
	Name  string
	Type  GateType
	Fanin []*Node
	// Value is the constant value for Const nodes.
	Value bool
	// Cover lists the SOP rows for Table nodes: each row has one rune per
	// fanin ('0', '1' or '-'); a minterm is in the onset if it matches
	// any row. An empty cover is the constant 0.
	Cover []string
}

// Latch is a state element: Output is the present-state node (appears as
// an Input-type node to the combinational logic), Input is the next-state
// function, Init the reset value.
type Latch struct {
	Name   string
	Input  *Node
	Output *Node
	Init   bool
}

// Network is a sequential Boolean network.
type Network struct {
	Name    string
	Inputs  []*Node // primary inputs, in declaration order
	Outputs []*Node // primary outputs, in declaration order
	Latches []*Latch
	nodes   []*Node // every node, insertion order
}

// PrimaryInputCount returns the number of primary inputs.
func (n *Network) PrimaryInputCount() int { return len(n.Inputs) }

// LatchCount returns the number of state elements.
func (n *Network) LatchCount() int { return len(n.Latches) }

// OutputCount returns the number of primary outputs.
func (n *Network) OutputCount() int { return len(n.Outputs) }

// NodeCount returns the total number of nodes, including inputs and latch
// outputs.
func (n *Network) NodeCount() int { return len(n.nodes) }

// Nodes returns the network's nodes in insertion order. The slice is
// shared; callers must not modify it.
func (n *Network) Nodes() []*Node { return n.nodes }

// Validate checks structural sanity: inputs and constants without fanin,
// covers matching fanin widths, combinational acyclicity (latches break
// cycles), and that every latch has a next-state function.
func (n *Network) Validate() error {
	for _, nd := range n.nodes {
		if err := checkArity(nd); err != nil {
			return err
		}
	}
	for _, l := range n.Latches {
		if l.Input == nil {
			return fmt.Errorf("logic: latch %s has no next-state function", l.Name)
		}
		if l.Output == nil || l.Output.Type != Input {
			return fmt.Errorf("logic: latch %s output must be an input-type node", l.Name)
		}
	}
	// Cycle check over combinational edges.
	state := make(map[*Node]int) // 0 unvisited, 1 on stack, 2 done
	var visit func(nd *Node) error
	visit = func(nd *Node) error {
		switch state[nd] {
		case 1:
			return fmt.Errorf("logic: combinational cycle through %q", nd.Name)
		case 2:
			return nil
		}
		state[nd] = 1
		for _, fi := range nd.Fanin {
			if err := visit(fi); err != nil {
				return err
			}
		}
		state[nd] = 2
		return nil
	}
	for _, nd := range n.nodes {
		if err := visit(nd); err != nil {
			return err
		}
	}
	return nil
}

func checkArity(nd *Node) error {
	switch nd.Type {
	case Input, Const:
		if len(nd.Fanin) != 0 {
			return fmt.Errorf("logic: %s node %q must have no fanin", nd.Type, nd.Name)
		}
	case Table:
		for _, row := range nd.Cover {
			if len(row) != len(nd.Fanin) {
				return fmt.Errorf("logic: table node %q row %q does not match fanin count %d",
					nd.Name, row, len(nd.Fanin))
			}
			for _, r := range row {
				if r != '0' && r != '1' && r != '-' {
					return fmt.Errorf("logic: table node %q has invalid row %q", nd.Name, row)
				}
			}
		}
	default:
		return fmt.Errorf("logic: node %q has invalid type", nd.Name)
	}
	return nil
}
