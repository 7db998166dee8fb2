// Package problem loads minimization instances — an incompletely
// specified function [f, c] plus enough metadata to rebuild it — from the
// three input formats the framework accepts: the paper's leaf-notation
// specs, espresso PLA files, and BLIF netlists (an internal node against
// the complement of its observability don't-care set).
//
// A Problem is manager-independent: parsing and validation happen once, at
// construction, and Build materializes the ISF on any bdd.Manager with
// enough variables. That split is what lets one parsed instance drive a
// one-shot CLI run, every shard of the bddmind server (each worker owns a
// private manager and rebuilds the instance locally), and the load
// generator's client-side verification, all from the same loader.
//
// The package also defines the corpus line format shared by `bddmin
// -spec -` batch mode and `bddload`: one instance per line, either a
// leaf-notation spec or an @pla/@blif file reference (see ExpandLine).
package problem

import (
	"fmt"
	"strings"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
	"bddmin/internal/logic"
)

// Kind identifies the input format a Problem was loaded from. The values
// double as the "format" discriminator of the bddmind request schema.
type Kind string

// The supported input formats.
const (
	KindSpec Kind = "spec" // leaf-notation spec (Figure 1 of the paper)
	KindPLA  Kind = "pla"  // espresso PLA, one output column
	KindBLIF Kind = "blif" // BLIF netlist, internal node vs. its ODC
)

// Problem is one minimization instance. Fields are set at construction and
// must be treated as read-only afterwards: a Problem is safe to share
// across goroutines as long as nobody mutates it (Build only reads).
type Problem struct {
	// Kind is the input format the instance came from.
	Kind Kind
	// Label names the instance in reports and error messages, e.g.
	// `-spec "d1 01"` or `-blif add4.blif -node g2`.
	Label string
	// Vars is the number of BDD variables the instance needs; Build
	// requires a manager with at least this many.
	Vars int
	// Raw is the original source text — the spec string, or the full
	// PLA/BLIF file contents — kept so a client can forward the instance
	// over the wire without re-serializing the parsed form.
	Raw string
	// Output is the PLA output column being minimized (KindPLA only).
	Output int
	// Node is the resolved BLIF node name (KindBLIF only).
	Node string

	pla    *logic.PLA
	net    *logic.Network
	target *logic.Node
	canon  string // normalized identity, computed at construction (CanonicalKey)
}

// FromSpec builds a Problem from a leaf-notation spec. The spec's syntax is
// checked eagerly (core.CheckSpec) so malformed input fails here, not at
// Build; a spec without a single value symbol is reported as empty.
func FromSpec(spec string) (*Problem, error) {
	n, err := core.CheckSpec(spec)
	if err != nil {
		if !strings.ContainsAny(spec, "01dD") {
			return nil, fmt.Errorf("problem: empty spec %q", spec)
		}
		return nil, err
	}
	return &Problem{
		Kind:  KindSpec,
		Label: fmt.Sprintf("-spec %q", spec),
		Vars:  n,
		Raw:   spec,
		canon: canonicalSpec(spec),
	}, nil
}

// ParsePLA builds a Problem minimizing output column `output` of an
// espresso PLA description. label seeds the instance name (typically the
// file name; "" uses a generic one).
func ParsePLA(src string, output int, label string) (*Problem, error) {
	pla, err := logic.ParsePLAString(src)
	if err != nil {
		return nil, err
	}
	if output < 0 || output >= pla.NumOutputs {
		return nil, fmt.Errorf("problem: PLA has %d outputs, no output %d", pla.NumOutputs, output)
	}
	if label == "" {
		label = "pla"
	}
	return &Problem{
		Kind:   KindPLA,
		Label:  fmt.Sprintf("-pla %s -output %d", label, output),
		Vars:   pla.NumInputs,
		Raw:    src,
		Output: output,
		pla:    pla,
		canon:  canonicalPLA(pla, output),
	}, nil
}

// ParseBLIF builds a Problem minimizing the named internal node of a BLIF
// netlist against the complement of its observability don't cares. An
// empty node name selects the first internal node with a non-trivial ODC
// (falling back to the first gate when every ODC is trivial), matching the
// bddmin CLI's historical behavior.
func ParseBLIF(src string, node string, label string) (*Problem, error) {
	return parseBLIF(src, node, label, "")
}

// parseBLIF is ParseBLIF for a caller that already holds the instance's
// key (Key); canon "" computes it.
func parseBLIF(src, node, label, canon string) (*Problem, error) {
	net, err := logic.ParseBLIFString(src)
	if err != nil {
		return nil, err
	}
	target, err := pickNode(net, node)
	if err != nil {
		return nil, err
	}
	if label == "" {
		label = "blif"
	}
	if canon == "" {
		canon = canonicalBLIF(src, target.Name)
	}
	return &Problem{
		Kind:   KindBLIF,
		Label:  fmt.Sprintf("-blif %s -node %s", label, target.Name),
		Vars:   net.PrimaryInputCount() + net.LatchCount(),
		Raw:    src,
		Node:   target.Name,
		net:    net,
		target: target,
		canon:  canon,
	}, nil
}

// Parse dispatches on the wire-format discriminator: input is the spec
// string for KindSpec and the file contents for KindPLA/KindBLIF. output
// and node are the format-specific selectors (ignored where meaningless).
func Parse(kind Kind, input string, output int, node string) (*Problem, error) {
	switch kind {
	case KindSpec:
		return FromSpec(input)
	case KindPLA:
		return ParsePLA(input, output, "")
	case KindBLIF:
		return ParseBLIF(input, node, "")
	}
	return nil, fmt.Errorf("problem: unknown format %q (want spec, pla or blif)", kind)
}

// Build materializes the instance on m, which must have at least Vars
// variables (the bddmind workers grow their private managers on demand
// with AddVar before calling Build). Variable names are set for spec-free
// formats so DOT exports stay readable.
func (p *Problem) Build(m *bdd.Manager) (core.ISF, error) {
	if m.NumVars() < p.Vars {
		return core.ISF{}, fmt.Errorf("problem: %s needs %d variables, manager has %d", p.Label, p.Vars, m.NumVars())
	}
	switch p.Kind {
	case KindSpec:
		return core.ParseSpec(m, p.Raw)
	case KindPLA:
		vars := make([]bdd.Var, p.Vars)
		for i := range vars {
			vars[i] = bdd.Var(i)
			if i < len(p.pla.InputNames) {
				m.SetVarName(vars[i], p.pla.InputNames[i])
			}
		}
		f, c, err := p.pla.OutputISF(m, vars, p.Output)
		if err != nil {
			return core.ISF{}, err
		}
		return core.ISF{F: f, C: c}, nil
	case KindBLIF:
		f, c, err := logic.NodeISF(m, p.net, BLIFEnv(m, p.net), p.target)
		if err != nil {
			return core.ISF{}, err
		}
		return core.ISF{F: f, C: c}, nil
	}
	return core.ISF{}, fmt.Errorf("problem: unknown kind %q", p.Kind)
}

// NewManager builds the instance on a fresh manager sized exactly to it —
// the one-shot CLI path, and what each parallel worker does to keep
// managers unshared (they are not goroutine-safe).
func (p *Problem) NewManager() (*bdd.Manager, core.ISF, error) {
	m := bdd.New(p.Vars)
	in, err := p.Build(m)
	return m, in, err
}

// Network returns the parsed BLIF netlist (nil unless Kind is KindBLIF),
// for callers that need more than the ISF, e.g. replacement verification.
func (p *Problem) Network() *logic.Network { return p.net }

// BLIFEnv binds a network's primary inputs and latch outputs (present-
// state variables) to BDD variables in declaration order — the binding the
// fsm compiler and the bddmin CLI both use.
func BLIFEnv(m *bdd.Manager, net *logic.Network) logic.Env {
	env := logic.Env{}
	v := 0
	for _, in := range net.Inputs {
		env[in] = m.MkVar(bdd.Var(v))
		m.SetVarName(bdd.Var(v), in.Name)
		v++
	}
	for _, l := range net.Latches {
		env[l.Output] = m.MkVar(bdd.Var(v))
		m.SetVarName(bdd.Var(v), l.Output.Name)
		v++
	}
	return env
}

// pickNode resolves a -node selection, or scans for the first internal
// node whose ODC set is non-trivial so the instance has real freedom to
// exploit.
func pickNode(net *logic.Network, name string) (*logic.Node, error) {
	internal := func(nd *logic.Node) bool {
		return nd.Type != logic.Input && nd.Type != logic.Const
	}
	if name != "" {
		for _, nd := range net.Nodes() {
			if nd.Name == name {
				if !internal(nd) {
					return nil, fmt.Errorf("problem: node %q is not an internal gate", name)
				}
				return nd, nil
			}
		}
		return nil, fmt.Errorf("problem: no node named %q in %s", name, net.Name)
	}
	scratch := bdd.New(net.PrimaryInputCount() + net.LatchCount())
	env := BLIFEnv(scratch, net)
	var first *logic.Node
	for _, nd := range net.Nodes() {
		if !internal(nd) {
			continue
		}
		if first == nil {
			first = nd
		}
		f, c, err := logic.NodeISF(scratch, net, env, nd)
		if err != nil {
			return nil, err
		}
		in := core.ISF{F: f, C: c}
		if _, trivial := in.Trivial(scratch); !trivial && c != bdd.One {
			return nd, nil
		}
	}
	if first == nil {
		return nil, fmt.Errorf("problem: %s has no internal nodes", net.Name)
	}
	return first, nil // every ODC trivial; fall back to the first gate
}
