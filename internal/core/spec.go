package core

import (
	"fmt"
	"strings"

	"bddmin/internal/bdd"
)

// ParseSpec parses the paper's compact notation for incompletely specified
// functions: the values of the function on the leaves of the binary
// decision tree, listed left to right (Figure 1c convention: the first
// variable is the root, the left branch is 0), with 'd' marking a don't
// care, '1' an onset point and '0' an offset point. Whitespace is ignored,
// so the paper's "(d1 01)" is written "d1 01".
//
// The total number of symbols must be a power of two, 2^n; the instance is
// built over variables 0..n-1 of m (which must have at least n variables).
// Don't-care leaf positions get the value 0 in the returned F component.
func ParseSpec(m *bdd.Manager, spec string) (ISF, error) {
	clean, n, err := checkSpec(spec)
	if err != nil {
		return ISF{}, err
	}
	if m.NumVars() < n {
		return ISF{}, fmt.Errorf("core: spec needs %d variables, manager has %d", n, m.NumVars())
	}
	fVals := make([]bool, len(clean))
	cVals := make([]bool, len(clean))
	for i, r := range clean {
		switch r {
		case '1':
			fVals[i] = true
			cVals[i] = true
		case '0':
			cVals[i] = true
		case 'd', 'D':
			// don't care: F arbitrary (0), C false
		}
	}
	vs := make([]bdd.Var, n)
	for i := range vs {
		vs[i] = bdd.Var(i)
	}
	return ISF{F: m.FromTruthTable(vs, fVals), C: m.FromTruthTable(vs, cVals)}, nil
}

// CheckSpec validates spec's syntax without building anything — only
// value symbols, whitespace and parentheses, and a power-of-two number of
// value symbols — and returns the number of variables the instance needs.
// Its errors are exactly the ones ParseSpec reports for malformed specs.
func CheckSpec(spec string) (nvars int, err error) {
	_, nvars, err = checkSpec(spec)
	return nvars, err
}

// checkSpec is CheckSpec also returning the spec's value symbols.
func checkSpec(spec string) (clean string, nvars int, err error) {
	clean = strings.Map(func(r rune) rune {
		switch r {
		case '0', '1', 'd', 'D':
			return r
		case ' ', '\t', '\n', '(', ')':
			return -1
		}
		return 'X'
	}, spec)
	if strings.ContainsRune(clean, 'X') {
		return "", 0, fmt.Errorf("core: spec %q contains invalid characters", spec)
	}
	for 1<<nvars < len(clean) {
		nvars++
	}
	if len(clean) == 0 || 1<<nvars != len(clean) {
		return "", 0, fmt.Errorf("core: spec %q has %d symbols, not a power of two", spec, len(clean))
	}
	return clean, nvars, nil
}

// MustParseSpec is ParseSpec, panicking on error; for tests and examples.
func MustParseSpec(m *bdd.Manager, spec string) ISF {
	i, err := ParseSpec(m, spec)
	if err != nil {
		panic(err)
	}
	return i
}

// FormatSpec renders [f, c] back into leaf notation over the given number
// of variables, grouping symbols in blocks of two for readability.
func FormatSpec(m *bdd.Manager, in ISF, n int) string {
	vs := make([]bdd.Var, n)
	for i := range vs {
		vs[i] = bdd.Var(i)
	}
	fv := m.TruthTable(in.F, vs)
	cv := m.TruthTable(in.C, vs)
	var b strings.Builder
	for i := range fv {
		if i > 0 && i%2 == 0 {
			b.WriteByte(' ')
		}
		switch {
		case !cv[i]:
			b.WriteByte('d')
		case fv[i]:
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	return b.String()
}
