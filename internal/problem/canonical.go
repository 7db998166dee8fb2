package problem

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"bddmin/internal/logic"
)

// Canonical request keys.
//
// CanonicalKey normalizes an instance to a string that is equal for any
// two requests the serving stack may safely treat as the same job: same
// format family, same [f, c] construction, same variable count. With the
// heuristic name it is bddmind's result-cache key — computed from the
// source text alone, before any BDD is built, and trusted without
// re-verifying a cached cover — so it must only erase differences that
// provably cannot change Build's result:
//
//   - specs: whitespace and grouping parentheses (ParseSpec ignores both)
//     and the D/d spelling of don't-care leaves;
//   - PLA: comments, directive noise (.p counts, .ilb/.ob names — variable
//     binding is positional), row order and row duplication (planes are
//     OR-accumulated, so both are immaterial), rows that the cover type
//     ignores for the selected output (non-'1' rows under .type f, '0'
//     rows under fd, '-' rows under fr), the '~'≡'-' output spelling, and
//     the other output columns (the instance minimizes exactly one);
//   - BLIF: comments, blank lines, line continuations, and runs of
//     whitespace. Signal names are semantic identity in a netlist (they
//     wire gates together and select the target node), so nothing deeper
//     is erased.
//
// Anything the normalizer is unsure about stays in the key verbatim:
// a missed equivalence only costs a duplicate run and cache entry, while
// an over-merge would serve a wrong cover. FuzzCanonicalKey checks both
// directions: respellings that erase only the differences above keep the
// key, and equal keys build identical [f, c].

// CanonicalKey returns the instance's normalized identity. The key is
// computed eagerly at construction, so this never fails and is safe to
// call concurrently.
func (p *Problem) CanonicalKey() string { return p.canon }

// KeyHash digests CanonicalKey to a stable 64-bit value — the placement
// key of the bddrouter's consistent-hash ring. Stability matters more
// than the choice of function: the digest must agree across processes,
// router restarts and releases, or cache locality evaporates on every
// deploy. FNV-1a over the canonical key has that property (no per-process
// seed, no map-order dependence); a regression test pins exact values.
func (p *Problem) KeyHash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(p.canon))
	return h.Sum64()
}

// canonicalSpec keeps exactly the symbols ParseSpec reads, don't-care
// case-folded. Two specs with equal canonical forms parse to the same
// leaf sequence and therefore the same [f, c].
func canonicalSpec(spec string) string {
	var b strings.Builder
	b.Grow(len(spec))
	for _, r := range spec {
		switch r {
		case '0', '1', 'd':
			b.WriteRune(r)
		case 'D':
			b.WriteRune('d')
		}
	}
	return "spec|" + b.String()
}

// canonicalPLA projects the parsed cover onto the selected output and
// normalizes it per the OutputISF semantics of the cover type. The
// projected rows keep only the input cube and the one output symbol that
// drives plane selection; rows the type ignores are dropped, and the
// surviving rows are sorted and deduplicated (plane accumulation is an OR,
// so order and multiplicity cannot matter). A .type f cover with its
// ignored rows dropped builds the same (onset, One) pair as a .type fd
// cover with no don't-care rows, so f folds into fd.
func canonicalPLA(pla *logic.PLA, output int) string {
	typ := pla.Type
	rows := make([]string, 0, len(pla.Rows))
	for _, row := range pla.Rows {
		o := row.Out[output]
		if o == '~' {
			o = '-'
		}
		switch typ {
		case "f":
			if o != '1' {
				continue // everything but the onset plane is implicit offset
			}
		case "fd":
			if o == '0' {
				continue // "not part of this output", not an offset row
			}
		case "fr":
			if o == '-' {
				continue // dcset is unused by fr's care set
			}
		}
		rows = append(rows, row.In+string(o))
	}
	if typ == "f" {
		typ = "fd"
	}
	sort.Strings(rows)
	uniq := rows[:0]
	for i, r := range rows {
		if i == 0 || r != rows[i-1] {
			uniq = append(uniq, r)
		}
	}
	var b strings.Builder
	b.WriteString("pla|")
	b.WriteString(typ)
	b.WriteString("|i")
	b.WriteString(strconv.Itoa(pla.NumInputs))
	for _, r := range uniq {
		b.WriteByte('|')
		b.WriteString(r)
	}
	return b.String()
}

// canonicalBLIF re-renders the netlist source the way the parser sees it:
// comments stripped, continuations joined, blank lines dropped, and each
// surviving logical line reduced to its fields joined by single spaces.
// The resolved target node is part of the key — the same netlist minimized
// at a different node is a different instance. Signal names may contain
// '|', so the node and the lines are escaped before they are joined with
// it; otherwise node "n|.model" of one netlist and node "n" of the same
// netlist under a ".model" line would share a key.
func canonicalBLIF(src, node string) string {
	var b strings.Builder
	b.WriteString("blif|")
	b.WriteString(blifEscaper.Replace(node))
	pending := ""
	for _, line := range strings.Split(src, "\n") {
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
		b.WriteByte('|')
		b.WriteString(blifEscaper.Replace(strings.Join(strings.Fields(line), " ")))
	}
	return b.String()
}

// blifEscaper makes '|' unambiguous as the BLIF key's separator.
var blifEscaper = strings.NewReplacer(`\`, `\\`, `|`, `\|`)
