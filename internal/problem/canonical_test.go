package problem

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bddmin/internal/bdd"
)

// writeTestFiles drops the shared PLA and BLIF fixtures into a temp dir
// for corpus tests that reference them by path.
func writeTestFiles(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t.pla"), []byte(testPLA), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "m.blif"), []byte(testBLIF), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// spelling is one instance as a bddmind request carries it: the format,
// the source text and the format's selector (PLA output or BLIF node).
type spelling struct {
	kind   Kind
	input  string
	output int
	node   string
}

func (s spelling) parse() (*Problem, error) { return Parse(s.kind, s.input, s.output, s.node) }

const plaHeader = ".i 3\n.o 1\n"

// sepBLIF has a signal whose name contains '|', the BLIF key's separator:
// f = n + n|.model with n = ab and n|.model = a.
const sepBLIF = ".inputs a b\n.outputs f\n.names a b n\n11 1\n.names a n|.model\n1 1\n.names n n|.model f\n1- 1\n-1 1\n.end\n"

// canonicalKeyCases are pairs that must (or must not) normalize to the
// same key. TestCanonicalKey runs them and FuzzCanonicalKey seeds from
// them.
var canonicalKeyCases = []struct {
	name  string
	a, b  spelling
	equal bool
}{
	{
		name:  "spec whitespace and grouping",
		a:     spelling{kind: KindSpec, input: "d1 01 1d 01"},
		b:     spelling{kind: KindSpec, input: "  (d1 01) (1d\t01)  "},
		equal: true,
	},
	{
		name:  "spec don't-care case",
		a:     spelling{kind: KindSpec, input: "D1 01 1D 01"},
		b:     spelling{kind: KindSpec, input: "d1 01 1d 01"},
		equal: true,
	},
	{
		name:  "spec different leaves",
		a:     spelling{kind: KindSpec, input: "d1 01"},
		b:     spelling{kind: KindSpec, input: "d1 00"},
		equal: false,
	},
	{
		name:  "pla row order and duplicates",
		a:     spelling{kind: KindPLA, input: plaHeader + "1-1 1\n01- 1\n000 -\n"},
		b:     spelling{kind: KindPLA, input: plaHeader + "000 -\n1-1 1\n01- 1\n1-1 1\n"},
		equal: true,
	},
	{
		name:  "pla output don't-care spelling",
		a:     spelling{kind: KindPLA, input: plaHeader + "1-1 1\n000 ~\n"},
		b:     spelling{kind: KindPLA, input: plaHeader + "1-1 1\n000 -\n"},
		equal: true,
	},
	{
		name:  "pla variable names are positional",
		a:     spelling{kind: KindPLA, input: plaHeader + ".ilb a b c\n.ob f\n1-1 1\n"},
		b:     spelling{kind: KindPLA, input: plaHeader + ".ilb x y z\n.ob out\n1-1 1\n"},
		equal: true,
	},
	{
		name:  "pla type f ignores non-onset rows",
		a:     spelling{kind: KindPLA, input: plaHeader + ".type f\n1-1 1\n000 0\n010 -\n"},
		b:     spelling{kind: KindPLA, input: plaHeader + ".type f\n1-1 1\n"},
		equal: true,
	},
	{
		name:  "pla type f folds into fd",
		a:     spelling{kind: KindPLA, input: plaHeader + ".type f\n1-1 1\n"},
		b:     spelling{kind: KindPLA, input: plaHeader + ".type fd\n1-1 1\n"},
		equal: true,
	},
	{
		name:  "pla type fd ignores zero rows",
		a:     spelling{kind: KindPLA, input: plaHeader + "1-1 1\n000 0\n010 -\n"},
		b:     spelling{kind: KindPLA, input: plaHeader + "1-1 1\n010 -\n"},
		equal: true,
	},
	{
		name:  "pla type fr ignores dc rows",
		a:     spelling{kind: KindPLA, input: plaHeader + ".type fr\n1-1 1\n000 0\n010 -\n"},
		b:     spelling{kind: KindPLA, input: plaHeader + ".type fr\n1-1 1\n000 0\n"},
		equal: true,
	},
	{
		name:  "pla fd keeps dc rows",
		a:     spelling{kind: KindPLA, input: plaHeader + "1-1 1\n010 -\n"},
		b:     spelling{kind: KindPLA, input: plaHeader + "1-1 1\n"},
		equal: false,
	},
	{
		name:  "pla different output column",
		a:     spelling{kind: KindPLA, input: testPLA, output: 0},
		b:     spelling{kind: KindPLA, input: testPLA, output: 1},
		equal: false,
	},
	{
		name:  "pla type fd vs fr differ",
		a:     spelling{kind: KindPLA, input: plaHeader + ".type fd\n1-1 1\n"},
		b:     spelling{kind: KindPLA, input: plaHeader + ".type fr\n1-1 1\n"},
		equal: false,
	},
	{
		name: "blif comments, continuations and spacing",
		a:    spelling{kind: KindBLIF, input: testBLIF, node: "inner"},
		b: spelling{kind: KindBLIF, input: strings.ReplaceAll(testBLIF, ".names a c inner",
			"# the gate under test\n.names a \\\n  c   inner"), node: "inner"},
		equal: true,
	},
	{
		name:  "blif different target node",
		a:     spelling{kind: KindBLIF, input: testBLIF, node: "inner"},
		b:     spelling{kind: KindBLIF, input: testBLIF, node: "f"},
		equal: false,
	},
	{
		name:  "blif signal names are semantic",
		a:     spelling{kind: KindBLIF, input: testBLIF, node: "f"},
		b:     spelling{kind: KindBLIF, input: strings.ReplaceAll(testBLIF, "inner", "g7"), node: "f"},
		equal: false,
	},
	{
		name: "blif node names may contain the separator",
		a:    spelling{kind: KindBLIF, input: sepBLIF, node: "n|.model"},
		b:    spelling{kind: KindBLIF, input: ".model\n" + sepBLIF, node: "n"},
	},
	{
		name:  "formats never collide",
		a:     spelling{kind: KindSpec, input: "d1 01"},
		b:     spelling{kind: KindPLA, input: ".i 2\n.o 1\n01 1\n"},
		equal: false,
	},
}

// TestCanonicalKey runs canonicalKeyCases. For every pair that should
// match, it also builds both instances in one manager and requires
// identical [f, c] — a key collision between different instances would
// serve wrong covers, so equality claims are checked against the real
// builder, not just asserted.
func TestCanonicalKey(t *testing.T) {
	for _, tc := range canonicalKeyCases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.a.parse()
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.b.parse()
			if err != nil {
				t.Fatal(err)
			}
			ka, kb := a.CanonicalKey(), b.CanonicalKey()
			if (ka == kb) != tc.equal {
				t.Fatalf("keys %q and %q: equal=%v, want %v", ka, kb, ka == kb, tc.equal)
			}
			if tc.equal {
				sameInstance(t, a, b)
			}
		})
	}
}

// sameInstance fails unless a and b need the same variables and build
// identical [f, c] Refs in one manager.
func sameInstance(t *testing.T, a, b *Problem) {
	t.Helper()
	if a.Vars != b.Vars {
		t.Fatalf("equal keys, different widths: %d vs %d variables\n%q\n%q", a.Vars, b.Vars, a.Raw, b.Raw)
	}
	m := bdd.New(a.Vars)
	ia, err := a.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if ia.F != ib.F || ia.C != ib.C {
		t.Fatalf("equal key %q builds different instances\n%q\n%q", a.CanonicalKey(), a.Raw, b.Raw)
	}
}

// TestCorpusDedupe: the auto-picked node of testBLIF is "inner", so the
// explicit and implicit spellings are one instance; the reordered PLA rows
// normalize together too. Distinct instances survive.
func TestCorpusDedupe(t *testing.T) {
	dir := writeTestFiles(t)
	corpus := `
d1 01 1d 01
(d1 01)(1d 01)
@blif m.blif
@blif m.blif inner
@pla t.pla 0
@pla t.pla 1
`
	probs, err := LoadCorpus(strings.NewReader(corpus), dir)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, p := range probs {
		labels = append(labels, p.Label)
	}
	if len(probs) != 4 {
		t.Fatalf("got %d problems (%v), want 4 after dedupe", len(probs), labels)
	}
	wantKinds := []Kind{KindSpec, KindBLIF, KindPLA, KindPLA}
	for i, p := range probs {
		if p.Kind != wantKinds[i] {
			t.Fatalf("problem %d: kind %s, want %s", i, p.Kind, wantKinds[i])
		}
	}
}
