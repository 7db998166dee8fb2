package logic

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// KISS is a state transition graph in the Berkeley KISS2 format, the form
// in which the MCNC FSM benchmarks (scf, styr, tbk, ...) are distributed.
//
// Supported directives: .i, .o, .p, .s, .r (reset state), .e/.end; one
// transition per line: "<input-cube> <current-state> <next-state>
// <output-cube>", with '-' don't cares in the input plane and '-' don't
// cares in the output plane (emitted as 0 when synthesized).
type KISS struct {
	NumInputs   int
	NumOutputs  int
	States      []string // in order of first appearance
	ResetState  string
	Transitions []KISSTransition
	stateIndex  map[string]int
}

// KISSTransition is one STG edge.
type KISSTransition struct {
	Input  string // over the inputs: 0, 1, -
	From   string
	To     string
	Output string // over the outputs: 0, 1, -
}

// ParseKISS reads a KISS2 state transition graph.
func ParseKISS(r io.Reader) (*KISS, error) {
	k := &KISS{stateIndex: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	line := 0
	declaredStates := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if strings.HasPrefix(fields[0], ".") {
			switch fields[0] {
			case ".i":
				if len(fields) != 2 || !parseInt(fields[1], &k.NumInputs) {
					return nil, fmt.Errorf("kiss line %d: bad .i", line)
				}
			case ".o":
				if len(fields) != 2 || !parseInt(fields[1], &k.NumOutputs) {
					return nil, fmt.Errorf("kiss line %d: bad .o", line)
				}
			case ".p":
				// product term count; informational
			case ".s":
				if len(fields) != 2 || !parseInt(fields[1], &declaredStates) {
					return nil, fmt.Errorf("kiss line %d: bad .s", line)
				}
			case ".r":
				if len(fields) != 2 {
					return nil, fmt.Errorf("kiss line %d: bad .r", line)
				}
				k.ResetState = fields[1]
			case ".e", ".end":
				// done
			default:
				return nil, fmt.Errorf("kiss line %d: unsupported directive %s", line, fields[0])
			}
			continue
		}
		if len(fields) != 4 {
			return nil, fmt.Errorf("kiss line %d: expected 4 fields", line)
		}
		tr := KISSTransition{Input: fields[0], From: fields[1], To: fields[2], Output: fields[3]}
		if k.NumInputs == 0 || k.NumOutputs == 0 {
			return nil, fmt.Errorf("kiss line %d: transition before .i/.o", line)
		}
		if len(tr.Input) != k.NumInputs || len(tr.Output) != k.NumOutputs {
			return nil, fmt.Errorf("kiss line %d: plane width mismatch", line)
		}
		for _, c := range tr.Input {
			if c != '0' && c != '1' && c != '-' {
				return nil, fmt.Errorf("kiss line %d: bad input symbol %q", line, c)
			}
		}
		for _, c := range tr.Output {
			if c != '0' && c != '1' && c != '-' {
				return nil, fmt.Errorf("kiss line %d: bad output symbol %q", line, c)
			}
		}
		k.intern(tr.From)
		k.intern(tr.To)
		k.Transitions = append(k.Transitions, tr)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if k.NumInputs == 0 || k.NumOutputs == 0 || len(k.Transitions) == 0 {
		return nil, fmt.Errorf("kiss: incomplete description")
	}
	if k.ResetState == "" {
		k.ResetState = k.Transitions[0].From
	}
	if _, ok := k.stateIndex[k.ResetState]; !ok {
		return nil, fmt.Errorf("kiss: reset state %q never used", k.ResetState)
	}
	if declaredStates != 0 && declaredStates != len(k.States) {
		return nil, fmt.Errorf("kiss: .s declares %d states, %d seen", declaredStates, len(k.States))
	}
	return k, nil
}

// ParseKISSString is ParseKISS on a string.
func ParseKISSString(s string) (*KISS, error) { return ParseKISS(strings.NewReader(s)) }

func (k *KISS) intern(state string) int {
	if i, ok := k.stateIndex[state]; ok {
		return i
	}
	i := len(k.States)
	k.States = append(k.States, state)
	k.stateIndex[state] = i
	return i
}

// StateBits returns the number of state-encoding bits (binary encoding).
func (k *KISS) StateBits() int {
	bits := 0
	for 1<<bits < len(k.States) {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

// checkDeterministic rejects STGs in which two transitions from the same
// state have overlapping input cubes but different next states or
// conflicting specified outputs — the SOP synthesis would silently OR the
// planes together.
func (k *KISS) checkDeterministic() error {
	overlap := func(a, b string) bool {
		for i := range a {
			if a[i] != '-' && b[i] != '-' && a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i, a := range k.Transitions {
		for _, b := range k.Transitions[i+1:] {
			if a.From != b.From || !overlap(a.Input, b.Input) {
				continue
			}
			if a.To != b.To {
				return fmt.Errorf("kiss: nondeterministic transitions from %s on overlapping inputs %s/%s",
					a.From, a.Input, b.Input)
			}
			for j := range a.Output {
				x, y := a.Output[j], b.Output[j]
				if x != '-' && y != '-' && x != y {
					return fmt.Errorf("kiss: conflicting outputs from %s on overlapping inputs %s/%s",
						a.From, a.Input, b.Input)
				}
			}
		}
	}
	return nil
}

// Synthesize lowers the STG to a gate-level Network with binary state
// encoding: states are numbered in order of first appearance (the reset
// state is re-numbered to code 0 so latch initialization is all-zero).
// Next-state and output logic are built as SOP tables over the inputs and
// state bits. Unspecified input/state combinations keep state code and
// emit 0 outputs only where no transition matches — i.e. the synthesized
// machine is deterministic with explicit self-loop defaults, the standard
// completion when benchmarking STGs.
func (k *KISS) Synthesize(name string) (*Network, error) {
	bits := k.StateBits()
	// Renumber so the reset state is code 0.
	code := make([]int, len(k.States))
	reset := k.stateIndex[k.ResetState]
	for i := range code {
		switch {
		case i == reset:
			code[i] = 0
		case i < reset:
			code[i] = i + 1
		default:
			code[i] = i
		}
	}
	b := NewBuilder(name)
	ins := make([]*Node, k.NumInputs)
	for i := range ins {
		ins[i] = b.Input(fmt.Sprintf("i%d", i))
	}
	qs := make([]*Node, bits)
	for i := range qs {
		qs[i] = b.Latch(fmt.Sprintf("st%d", i), false)
	}
	fanin := append(append([]*Node{}, ins...), qs...)
	stateCube := func(si int) string {
		c := make([]byte, bits)
		for j := 0; j < bits; j++ {
			if code[si]&(1<<j) != 0 {
				c[j] = '1'
			} else {
				c[j] = '0'
			}
		}
		return string(c)
	}
	if err := k.checkDeterministic(); err != nil {
		return nil, err
	}
	// Rows per next-state bit and per output.
	nextRows := make([][]string, bits)
	outRows := make([][]string, k.NumOutputs)
	matchRows := []string{} // all specified (input, state) combinations
	for _, tr := range k.Transitions {
		row := tr.Input + stateCube(k.stateIndex[tr.From])
		matchRows = append(matchRows, row)
		toCode := code[k.stateIndex[tr.To]]
		for j := 0; j < bits; j++ {
			if toCode&(1<<j) != 0 {
				nextRows[j] = append(nextRows[j], row)
			}
		}
		for j := 0; j < k.NumOutputs; j++ {
			if tr.Output[j] == '1' {
				outRows[j] = append(outRows[j], row)
			}
		}
	}
	// matched = some transition applies; default: hold state.
	matched := b.Table(fanin, matchRows)
	for j := 0; j < bits; j++ {
		spec := b.Table(fanin, nextRows[j])
		b.SetNext(qs[j], b.Mux(matched, spec, qs[j]))
	}
	for j := 0; j < k.NumOutputs; j++ {
		b.Output(fmt.Sprintf("o%d", j), b.Table(fanin, outRows[j]))
	}
	return b.Build()
}
