package logic

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseBLIF reads a network in the BLIF subset used by the SIS benchmark
// suite: .model, .inputs, .outputs, .names (single-output SOP covers with
// '0'/'1'/'-' input rows and a '1' or '0' output column), .latch with an
// optional initial value, comments (#) and line continuations (\), and
// .end. Multi-model files, .subckt, and don't-care covers (.exdc) are not
// supported and produce errors.
//
// BLIF .names covers with output value 0 describe the offset; they are
// complemented into onset form on construction.
func ParseBLIF(r io.Reader) (*Network, error) {
	p := &blifParser{
		nodes: make(map[string]*Node),
	}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(nil, maxLineBytes)
	var pending string
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line = pending + line
		pending = ""
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("blif line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return p.build()
}

// ParseBLIFString is ParseBLIF on a string.
func ParseBLIFString(s string) (*Network, error) { return ParseBLIF(strings.NewReader(s)) }

type blifLatch struct {
	input, output string
	init          bool
}

type blifNames struct {
	signals []string // fanins + output (last)
	rows    []string // raw cover rows including output column
}

type blifParser struct {
	model   string
	inputs  []string
	outputs []string
	latches []blifLatch
	tables  []*blifNames
	cur     *blifNames
	nodes   map[string]*Node
	ended   bool
}

func (p *blifParser) line(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	if p.ended {
		return fmt.Errorf("content after .end")
	}
	if strings.HasPrefix(fields[0], ".") {
		p.cur = nil
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				p.model = fields[1]
			}
		case ".inputs":
			p.inputs = append(p.inputs, fields[1:]...)
		case ".outputs":
			p.outputs = append(p.outputs, fields[1:]...)
		case ".latch":
			if len(fields) < 3 {
				return fmt.Errorf(".latch needs input and output")
			}
			l := blifLatch{input: fields[1], output: fields[2]}
			// Optional trailing fields: [type [control]] [init-val]. We
			// accept the common "input output [init]" and the full form,
			// taking the last field as the init value when it parses.
			last := fields[len(fields)-1]
			switch last {
			case "1":
				l.init = true
			case "0", "2", "3":
				// 0 explicit; 2 (don't care) and 3 (unknown) default to 0.
			default:
				if len(fields) > 3 {
					return fmt.Errorf(".latch %s: bad init value %q", l.output, last)
				}
			}
			p.latches = append(p.latches, l)
		case ".names":
			if len(fields) < 2 {
				return fmt.Errorf(".names needs at least an output")
			}
			p.cur = &blifNames{signals: fields[1:]}
			p.tables = append(p.tables, p.cur)
		case ".end":
			p.ended = true
		case ".exdc", ".subckt", ".gate", ".mlatch":
			return fmt.Errorf("unsupported construct %s", fields[0])
		default:
			// Ignore unknown dot-directives (e.g. .default_input_arrival).
		}
		return nil
	}
	if p.cur == nil {
		return fmt.Errorf("cover row %q outside .names", line)
	}
	row := strings.Join(fields, " ")
	p.cur.rows = append(p.cur.rows, row)
	return nil
}

func (p *blifParser) finish() error {
	if p.model == "" {
		p.model = "blif"
	}
	return nil
}

func (p *blifParser) node(name string) *Node {
	if nd, ok := p.nodes[name]; ok {
		return nd
	}
	nd := &Node{Name: name, Type: Input} // provisional; tables may retype
	p.nodes[name] = nd
	return nd
}

func (p *blifParser) build() (*Network, error) {
	net := &Network{Name: p.model}
	for _, in := range p.inputs {
		nd := p.node(in)
		net.Inputs = append(net.Inputs, nd)
	}
	for _, l := range p.latches {
		out := p.node(l.output)
		net.Latches = append(net.Latches, &Latch{
			Name:   l.output,
			Input:  p.node(l.input),
			Output: out,
			Init:   l.init,
		})
	}
	for _, tbl := range p.tables {
		outName := tbl.signals[len(tbl.signals)-1]
		nd := p.node(outName)
		if nd.Type != Input || len(nd.Fanin) > 0 {
			return nil, fmt.Errorf("blif: %q defined twice", outName)
		}
		faninNames := tbl.signals[:len(tbl.signals)-1]
		var fanin []*Node
		for _, fn := range faninNames {
			fanin = append(fanin, p.node(fn))
		}
		onset, offset, err := splitCover(tbl.rows, len(fanin), outName)
		if err != nil {
			return nil, err
		}
		nd.Type = Table
		nd.Fanin = fanin
		switch {
		case len(fanin) == 0:
			// Constant: ".names c" followed by "1" (or nothing for 0).
			nd.Type = Const
			nd.Value = len(onset) > 0
		case len(offset) > 0:
			// Offset cover: its complement, a one-row "0" table over a
			// table of the offset rows.
			inner := &Node{Name: outName + "$off", Type: Table, Fanin: fanin, Cover: offset}
			net.nodes = append(net.nodes, inner)
			nd.Fanin = []*Node{inner}
			nd.Cover = []string{"0"}
		default:
			nd.Cover = onset
		}
	}
	// Latch outputs stay Input-typed; everything else that is still a
	// bare Input must be a declared primary input.
	declared := make(map[*Node]bool)
	for _, in := range net.Inputs {
		declared[in] = true
	}
	for _, l := range net.Latches {
		declared[l.Output] = true
	}
	// Deterministic node order: inputs, latches, then tables as declared.
	seen := make(map[*Node]bool)
	appendNode := func(nd *Node) {
		if !seen[nd] {
			seen[nd] = true
			net.nodes = append(net.nodes, nd)
		}
	}
	for _, nd := range net.Inputs {
		appendNode(nd)
	}
	for _, l := range net.Latches {
		appendNode(l.Output)
	}
	for _, tbl := range p.tables {
		appendNode(p.nodes[tbl.signals[len(tbl.signals)-1]])
	}
	for _, name := range p.outputs {
		nd, ok := p.nodes[name]
		if !ok {
			return nil, fmt.Errorf("blif: output %q never defined", name)
		}
		net.Outputs = append(net.Outputs, nd)
	}
	for _, nd := range p.nodes {
		if nd.Type == Input && !declared[nd] {
			return nil, fmt.Errorf("blif: signal %q used but never defined", nd.Name)
		}
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// splitCover separates BLIF cover rows into onset and offset input planes.
func splitCover(rows []string, arity int, name string) (onset, offset []string, err error) {
	for _, row := range rows {
		fields := strings.Fields(row)
		var in, out string
		switch {
		case arity == 0 && len(fields) == 1:
			in, out = "", fields[0]
		case len(fields) == 2:
			in, out = fields[0], fields[1]
		default:
			return nil, nil, fmt.Errorf("blif: %q has malformed cover row %q", name, row)
		}
		if len(in) != arity {
			return nil, nil, fmt.Errorf("blif: %q cover row %q does not match %d fanins", name, row, arity)
		}
		switch out {
		case "1":
			onset = append(onset, in)
		case "0":
			offset = append(offset, in)
		default:
			return nil, nil, fmt.Errorf("blif: %q cover row %q has invalid output", name, row)
		}
	}
	if len(onset) > 0 && len(offset) > 0 {
		return nil, nil, fmt.Errorf("blif: %q mixes onset and offset rows", name)
	}
	return onset, offset, nil
}

// WriteBLIF serializes the network in the same subset, for round-trip
// tests and interchange: each Table node is written as its cover.
func WriteBLIF(w io.Writer, n *Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", n.Name)
	fmt.Fprint(bw, ".inputs")
	for _, in := range n.Inputs {
		fmt.Fprintf(bw, " %s", in.Name)
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	for _, o := range n.Outputs {
		fmt.Fprintf(bw, " %s", o.Name)
	}
	fmt.Fprintln(bw)
	for _, l := range n.Latches {
		init := 0
		if l.Init {
			init = 1
		}
		fmt.Fprintf(bw, ".latch %s %s %d\n", l.Input.Name, l.Output.Name, init)
	}
	for _, nd := range n.nodes {
		writeNode(bw, nd)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func writeNode(w io.Writer, nd *Node) {
	switch nd.Type {
	case Input:
		return
	case Const:
		fmt.Fprintf(w, ".names %s\n", nd.Name)
		if nd.Value {
			fmt.Fprintln(w, "1")
		}
		return
	}
	fmt.Fprint(w, ".names")
	for _, fi := range nd.Fanin {
		fmt.Fprintf(w, " %s", fi.Name)
	}
	fmt.Fprintf(w, " %s\n", nd.Name)
	for _, row := range nd.Cover {
		fmt.Fprintf(w, "%s 1\n", row)
	}
}
