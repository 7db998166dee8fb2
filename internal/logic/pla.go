package logic

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"bddmin/internal/bdd"
)

// PLA is a two-level cover in the Berkeley espresso format — the natural
// interchange format for incompletely specified functions, and how
// real-world instances reach the minimizer from files.
//
// Supported directives: .i, .o, .p, .ilb, .ob, .type (f, fd, fr, fdr),
// .e/.end, comments (#). Input plane symbols: 0, 1, - ; output plane
// symbols: 0, 1, - (don't care), ~ (treated as don't care).
type PLA struct {
	NumInputs   int
	NumOutputs  int
	InputNames  []string
	OutputNames []string
	// Type is the cover interpretation: "fd" (default; 1 = onset,
	// - = don't care, offset implicit), "fr" (1 = onset, 0 = offset,
	// don't care implicit), "f" (onset only; everything else offset) or
	// "fdr" (all three planes explicit).
	Type string
	Rows []PLARow
}

// PLARow is one product term: In over the inputs, Out over the outputs.
type PLARow struct {
	In  string
	Out string
}

// ParsePLA reads an espresso PLA description.
func ParsePLA(r io.Reader) (*PLA, error) {
	p := &PLA{Type: "fd"}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	line := 0
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
			if (fields[0] == ".i" || fields[0] == ".o") && len(p.Rows) > 0 {
				// Rows are checked against the widths in force when read.
				return nil, fmt.Errorf("pla line %d: %s after cubes", line, fields[0])
			}
			switch fields[0] {
			case ".i":
				if len(fields) != 2 || !parseInt(fields[1], &p.NumInputs) {
					return nil, fmt.Errorf("pla line %d: bad .i", line)
				}
			case ".o":
				if len(fields) != 2 || !parseInt(fields[1], &p.NumOutputs) {
					return nil, fmt.Errorf("pla line %d: bad .o", line)
				}
			case ".p":
				// Product-term count: informational; verified at the end.
			case ".ilb":
				p.InputNames = fields[1:]
			case ".ob":
				p.OutputNames = fields[1:]
			case ".type":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla line %d: bad .type", line)
				}
				switch fields[1] {
				case "f", "fd", "fr", "fdr":
					p.Type = fields[1]
				default:
					return nil, fmt.Errorf("pla line %d: unsupported type %q", line, fields[1])
				}
			case ".e", ".end":
				// done
			default:
				return nil, fmt.Errorf("pla line %d: unsupported directive %s", line, fields[0])
			}
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("pla line %d: expected input and output planes", line)
		}
		row := PLARow{In: fields[0], Out: fields[1]}
		if p.NumInputs == 0 || p.NumOutputs == 0 {
			return nil, fmt.Errorf("pla line %d: cube before .i/.o", line)
		}
		if len(row.In) != p.NumInputs || len(row.Out) != p.NumOutputs {
			return nil, fmt.Errorf("pla line %d: cube width mismatch", line)
		}
		for _, c := range row.In {
			if c != '0' && c != '1' && c != '-' {
				return nil, fmt.Errorf("pla line %d: bad input symbol %q", line, c)
			}
		}
		for _, c := range row.Out {
			if c != '0' && c != '1' && c != '-' && c != '~' {
				return nil, fmt.Errorf("pla line %d: bad output symbol %q", line, c)
			}
		}
		p.Rows = append(p.Rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.NumInputs == 0 || p.NumOutputs == 0 {
		return nil, fmt.Errorf("pla: missing .i/.o")
	}
	return p, nil
}

// ParsePLAString is ParsePLA on a string.
func ParsePLAString(s string) (*PLA, error) { return ParsePLA(strings.NewReader(s)) }

// maxLineBytes is the longest line the BLIF, PLA and KISS parsers accept;
// a longer one fails with bufio.ErrTooLong. Their scanners start with no
// buffer and grow one on demand up to it, so a small file costs a small
// buffer.
const maxLineBytes = 1 << 20

func parseInt(s string, out *int) bool {
	v := 0
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + int(c-'0')
	}
	*out = v
	return v > 0
}

// cubeBDD builds the BDD of one input cube over vars[0..NumInputs).
func (p *PLA) cubeBDD(m *bdd.Manager, vars []bdd.Var, in string) bdd.Ref {
	r := bdd.One
	for i := len(in) - 1; i >= 0; i-- {
		switch in[i] {
		case '1':
			r = m.And(r, m.MkVar(vars[i]))
		case '0':
			r = m.And(r, m.MkNotVar(vars[i]))
		}
	}
	return r
}

// OutputISF materializes output j as an incompletely specified function
// (f = onset, c = care set) over the given BDD variables, interpreting
// the planes per the cover type.
func (p *PLA) OutputISF(m *bdd.Manager, vars []bdd.Var, j int) (f, c bdd.Ref, err error) {
	if len(vars) != p.NumInputs {
		return bdd.Zero, bdd.Zero, fmt.Errorf("pla: need %d variables, got %d", p.NumInputs, len(vars))
	}
	if j < 0 || j >= p.NumOutputs {
		return bdd.Zero, bdd.Zero, fmt.Errorf("pla: output %d out of range", j)
	}
	// Each plane is a sum of cubes, folded by OrN as a balanced tree.
	var on, off, dc []bdd.Ref
	for _, row := range p.Rows {
		var plane *[]bdd.Ref
		switch row.Out[j] {
		case '1':
			plane = &on
		case '0':
			// In type f and fd covers, a 0 output merely means "this
			// product term does not belong to output j".
			if p.Type == "fr" || p.Type == "fdr" {
				plane = &off
			} else {
				continue
			}
		case '-', '~':
			plane = &dc
		}
		if plane != nil {
			*plane = append(*plane, p.cubeBDD(m, vars, row.In))
		}
	}
	onset, offset, dcset := m.OrN(on...), m.OrN(off...), m.OrN(dc...)
	switch p.Type {
	case "f":
		// Onset only: everything else is offset; fully specified.
		return onset, bdd.One, nil
	case "fd":
		// Offset implicit: care where not explicitly don't care. Onset
		// wins where planes overlap (espresso's convention is that
		// overlapping on/dc is tolerated).
		return onset, m.Or(dcset.Not(), onset), nil
	case "fr":
		return onset, m.Or(onset, offset), nil
	case "fdr":
		care := m.Or(onset, offset)
		if !m.Disjoint(dcset, care) {
			// Overlaps resolved in favor of the specified planes.
			dcset = m.AndNot(dcset, care)
		}
		return onset, m.Or(care, m.AndN(care.Not(), dcset.Not())), nil
	}
	return bdd.Zero, bdd.Zero, fmt.Errorf("pla: invalid type %q", p.Type)
}
