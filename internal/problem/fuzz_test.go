package problem

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"bddmin/internal/logic"
)

// FuzzCanonicalKey checks the result-cache key in both directions. Each
// iteration collects up to four instances: the two fuzzed spellings, a
// small random instance drawn from seed, and a one-edit neighbor of it.
//
//   - Each instance is respelled using only the differences the
//     canonical.go header says are erased; the key must not change.
//   - Every two instances with equal keys (respellings included) must
//     build identical [f, c] Refs in one manager: no over-merge.
//
// A fuzzed spelling is "<format> [selector]\n<source>" (see encode); the
// seeds are TestCanonicalKey's pairs. Run it with
// `go test -run='^$' -fuzz=FuzzCanonicalKey ./internal/problem`.
func FuzzCanonicalKey(f *testing.F) {
	for i, tc := range canonicalKeyCases {
		f.Add(encode(tc.a), encode(tc.b), uint64(i))
	}
	f.Fuzz(func(t *testing.T, a, b string, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := genSpelling(rng)
		var probs []*Problem
		for _, s := range []spelling{decode(a), decode(b), g, perturb(rng, g)} {
			p, err := s.parse()
			if err != nil || p.Vars > 12 {
				continue
			}
			r := respell(rng, p)
			q, err := r.parse()
			if err != nil {
				t.Fatalf("respelling does not parse: %v\n%q\n%q", err, p.Raw, r.input)
			}
			if q.CanonicalKey() != p.CanonicalKey() {
				t.Fatalf("respelling changed the key\n%q -> %q\n%q -> %q", p.Raw, p.CanonicalKey(), q.Raw, q.CanonicalKey())
			}
			probs = append(probs, p, q)
		}
		for i, p := range probs {
			for _, q := range probs[i+1:] {
				if p.CanonicalKey() == q.CanonicalKey() {
					sameInstance(t, p, q)
				}
			}
		}
	})
}

// encode renders a spelling as one fuzz string: the format and its
// selector on the first line, the source after it.
func encode(s spelling) string {
	head := string(s.kind)
	switch s.kind {
	case KindPLA:
		head += " " + strconv.Itoa(s.output)
	case KindBLIF:
		if s.node != "" {
			head += " " + s.node
		}
	}
	return head + "\n" + s.input
}

// decode inverts encode on any string; what does not parse is skipped.
func decode(s string) spelling {
	head, input, _ := strings.Cut(s, "\n")
	sp := spelling{input: input}
	fields := strings.Fields(head)
	if len(fields) > 0 {
		sp.kind = Kind(fields[0])
	}
	if len(fields) > 1 {
		sp.node = fields[1]
		sp.output, _ = strconv.Atoi(fields[1])
	}
	return sp
}

var plaTypes = []string{"f", "fd", "fr", "fdr"}

// genSpelling draws a small instance: a spec of at most 3 variables, a
// PLA of at most 3 inputs and 2 outputs under any cover type, or a BLIF
// netlist of at most 3 inputs and 3 gates with a named or automatic
// target node.
func genSpelling(rng *rand.Rand) spelling {
	switch rng.Intn(3) {
	case 0:
		return spelling{kind: KindSpec, input: randWord(rng, "01dD", 1<<rng.Intn(4))}
	case 1:
		n, m := 1+rng.Intn(3), 1+rng.Intn(2)
		var b strings.Builder
		fmt.Fprintf(&b, ".i %d\n.o %d\n.type %s\n", n, m, plaTypes[rng.Intn(len(plaTypes))])
		for r := rng.Intn(5); r > 0; r-- {
			fmt.Fprintf(&b, "%s %s\n", randWord(rng, "01-", n), randWord(rng, "01-~", m))
		}
		return spelling{kind: KindPLA, input: b.String(), output: rng.Intn(m)}
	}
	signals := []string{"a", "b", "c"}[:1+rng.Intn(3)]
	gates := 1 + rng.Intn(3)
	var b strings.Builder
	fmt.Fprintf(&b, ".model g\n.inputs %s\n.outputs g%d\n", strings.Join(signals, " "), gates-1)
	for g := 0; g < gates; g++ {
		fanin := []string{signals[rng.Intn(len(signals))]}
		if other := signals[rng.Intn(len(signals))]; rng.Intn(2) == 0 && other != fanin[0] {
			fanin = append(fanin, other)
		}
		out := randWord(rng, "01", 1) // an onset or an offset cover
		fmt.Fprintf(&b, ".names %s g%d\n", strings.Join(fanin, " "), g)
		for r := 1 + rng.Intn(2); r > 0; r-- {
			fmt.Fprintf(&b, "%s %s\n", randWord(rng, "01-", len(fanin)), out)
		}
		signals = append(signals, "g"+strconv.Itoa(g))
	}
	b.WriteString(".end\n")
	node := ""
	if rng.Intn(3) > 0 {
		node = "g" + strconv.Itoa(rng.Intn(gates))
	}
	return spelling{kind: KindBLIF, input: b.String(), node: node}
}

// perturb makes one edit that may or may not change the instance: a new
// selector, a new PLA cover type, or one source symbol replaced.
func perturb(rng *rand.Rand, s spelling) spelling {
	switch rng.Intn(4) {
	case 0:
		s.output = rng.Intn(2)
		s.node = ""
		if rng.Intn(2) == 0 {
			s.node = "g" + strconv.Itoa(rng.Intn(3))
		}
		return s
	case 1:
		if s.kind == KindPLA {
			for _, typ := range plaTypes {
				s.input = strings.Replace(s.input, ".type "+typ+"\n", ".type "+plaTypes[rng.Intn(len(plaTypes))]+"\n", 1)
			}
			return s
		}
	}
	alphabet := map[Kind]string{KindSpec: "01dD", KindPLA: "01-~", KindBLIF: "01-"}[s.kind]
	src := []byte(s.input)
	for tries := 0; tries < 8 && len(src) > 0; tries++ {
		if i := rng.Intn(len(src)); strings.IndexByte(alphabet, src[i]) >= 0 {
			src[i] = alphabet[rng.Intn(len(alphabet))]
			break
		}
	}
	s.input = string(src)
	return s
}

// respell renders p again, changing only what CanonicalKey erases.
func respell(rng *rand.Rand, p *Problem) spelling {
	switch p.Kind {
	case KindSpec:
		return spelling{kind: KindSpec, input: respellSpec(rng, p.Raw)}
	case KindPLA:
		return spelling{kind: KindPLA, input: respellPLA(rng, p.pla, p.Output), output: p.Output}
	}
	return spelling{kind: KindBLIF, input: respellBLIF(rng, p.Raw), node: p.Node}
}

// respellSpec redraws whitespace, parentheses and the case of each
// don't-care leaf.
func respellSpec(rng *rand.Rand, raw string) string {
	fill := []string{"", "", " ", "\t", "\n", "(", ")", " ( "}
	var b strings.Builder
	for _, r := range raw {
		switch r {
		case 'd', 'D':
			r = rune("dD"[rng.Intn(2)])
		case '0', '1':
		default:
			continue
		}
		b.WriteString(fill[rng.Intn(len(fill))])
		b.WriteRune(r)
	}
	b.WriteString(fill[rng.Intn(len(fill))])
	return b.String()
}

// ignoredBy reports whether cover type typ ignores a row whose selected
// output symbol is o.
func ignoredBy(typ string, o byte) bool {
	switch typ {
	case "f":
		return o != '1'
	case "fd":
		return o == '0'
	case "fr":
		return o == '-' || o == '~'
	}
	return false
}

// respellPLA re-renders a parsed PLA for one output column: directives
// in any order with new names and .p counts, comments, rows shuffled and
// duplicated, ignored rows dropped or added, the other output columns
// redrawn, '-' and '~' swapped, and .type f folded into fd (or fd left
// implicit).
func respellPLA(rng *rand.Rand, pla *logic.PLA, out int) string {
	typ, fold := pla.Type, pla.Type == "f" && rng.Intn(2) == 0
	if fold {
		typ = "fd"
	}
	outWord := func(o byte) string {
		if o == '-' || o == '~' {
			o = "-~"[rng.Intn(2)]
		}
		w := []byte(randWord(rng, "01-~", pla.NumOutputs))
		w[out] = o
		return string(w)
	}
	var rows []string
	for _, row := range pla.Rows {
		o := row.Out[out]
		if fold && (o == '-' || o == '~') || ignoredBy(pla.Type, o) && rng.Intn(3) == 0 {
			continue // under fd these would be don't-care rows
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			rows = append(rows, row.In+" "+pad(rng)+outWord(o))
		}
	}
	var ignored []byte
	for _, o := range []byte("01-~") {
		if ignoredBy(typ, o) {
			ignored = append(ignored, o)
		}
	}
	for k := rng.Intn(3); k > 0 && len(ignored) > 0; k-- {
		rows = append(rows, randWord(rng, "01-", pla.NumInputs)+" "+pad(rng)+outWord(ignored[rng.Intn(len(ignored))]))
	}
	directives := []string{
		fmt.Sprintf(".i %d", pla.NumInputs),
		fmt.Sprintf(".o %d", pla.NumOutputs),
		fmt.Sprintf(".p %d", rng.Intn(9)),
		".ilb " + strings.Join(names(rng, pla.NumInputs), " "),
		".ob " + strings.Join(names(rng, pla.NumOutputs), " "),
	}
	if typ != "fd" || rng.Intn(2) == 0 {
		directives = append(directives, ".type "+typ)
	}
	rng.Shuffle(len(directives), func(i, j int) { directives[i], directives[j] = directives[j], directives[i] })
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	var b strings.Builder
	for _, line := range append(directives, rows...) {
		b.WriteString(pad(rng) + line + pad(rng) + comment(rng) + "\n")
	}
	if rng.Intn(2) == 0 {
		b.WriteString(".e\n")
	}
	return b.String()
}

// respellBLIF re-renders the netlist's logical lines — as the parser
// reads them — with new spacing, comments, blank lines and line
// continuations.
func respellBLIF(rng *rand.Rand, raw string) string {
	var b strings.Builder
	pending := ""
	for _, line := range strings.Split(raw, "\n") {
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
		line, pending = pending+line, ""
		if rng.Intn(4) == 0 {
			b.WriteString(pad(rng) + comment(rng) + "\n")
		}
		b.WriteString(pad(rng))
		for i, field := range strings.Fields(line) {
			if i > 0 {
				b.WriteString(" " + pad(rng))
				if rng.Intn(4) == 0 {
					b.WriteString("\\" + comment(rng) + "\n" + pad(rng))
				}
			}
			b.WriteString(field)
		}
		b.WriteString(pad(rng) + comment(rng) + "\n")
	}
	return b.String()
}

// randWord draws n symbols from alphabet.
func randWord(rng *rand.Rand, alphabet string, n int) string {
	w := make([]byte, n)
	for i := range w {
		w[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(w)
}

// pad draws a run of blanks, often empty.
func pad(rng *rand.Rand) string {
	return []string{"", "", " ", "\t", "  \t "}[rng.Intn(5)]
}

// comment draws an end-of-line comment, often none.
func comment(rng *rand.Rand) string {
	return []string{"", "", " # note", "#.names x y", "# \\"}[rng.Intn(5)]
}

// names draws n signal names.
func names(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "v" + strconv.Itoa(rng.Intn(100))
	}
	return out
}
