package problem

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/core"
)

const testPLA = `
.i 3
.o 2
.ilb a b c
.ob f g
.p 4
1-1 1-
01- -1
000 01
110 -0
.e
`

// testBLIF is a mux network: f = s ? (a AND c) : NOT c. The inner AND gate
// is unobservable when s=0, so its ODC is non-trivial.
const testBLIF = `
.model muxnet
.inputs s a c
.outputs f
.names a c inner
11 1
.names s inner c f
11- 1
0-0 1
.end
`

func TestFromSpec(t *testing.T) {
	p, err := FromSpec("d1 01 1d 01")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindSpec || p.Vars != 3 {
		t.Fatalf("kind %s vars %d", p.Kind, p.Vars)
	}
	m, in, err := p.NewManager()
	if err != nil {
		t.Fatal(err)
	}
	if got := core.FormatSpec(m, in, 3); got != "d1 01 1d 01" {
		t.Fatalf("round trip: %s", got)
	}
	for _, bad := range []string{"", "d1 0", "x1", "dd dd"} {
		if _, err := FromSpec(bad); (bad == "dd dd") != (err == nil) {
			t.Fatalf("FromSpec(%q) err = %v", bad, err)
		}
	}
}

// TestFromSpecErrorTexts pins the exact error strings FromSpec reports: they
// reach clients verbatim in 400 bodies, so a refactor must not reword them.
func TestFromSpecErrorTexts(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"", `problem: empty spec ""`},
		{"   ", `problem: empty spec "   "`},
		{"()", `problem: empty spec "()"`},
		{"xyz", `problem: empty spec "xyz"`},
		{"x1", `core: spec "x1" contains invalid characters`},
		{"01\r01", `core: spec "01\r01" contains invalid characters`},
		{"d1 0", `core: spec "d1 0" has 3 symbols, not a power of two`},
		{"d1 01 1d", `core: spec "d1 01 1d" has 6 symbols, not a power of two`},
	} {
		_, err := FromSpec(tc.spec)
		if err == nil || err.Error() != tc.want {
			t.Errorf("FromSpec(%q) err = %v, want %s", tc.spec, err, tc.want)
		}
	}
	for spec, vars := range map[string]int{"dd dd": 2, "D1 (01)": 2, "1": 0, "d1 01 1d 01": 3} {
		p, err := FromSpec(spec)
		if err != nil || p.Vars != vars {
			t.Errorf("FromSpec(%q) = %v, %v; want %d vars", spec, p, err, vars)
		}
	}
}

func TestParsePLA(t *testing.T) {
	p, err := ParsePLA(testPLA, 1, "test.pla")
	if err != nil {
		t.Fatal(err)
	}
	if p.Vars != 3 || p.Output != 1 {
		t.Fatalf("vars %d output %d", p.Vars, p.Output)
	}
	m, in, err := p.NewManager()
	if err != nil {
		t.Fatal(err)
	}
	if in.C == bdd.Zero || m.Size(in.F) == 0 {
		t.Fatal("degenerate instance")
	}
	if _, err := ParsePLA(testPLA, 2, ""); err == nil {
		t.Fatal("output 2 of a 2-output PLA must fail")
	}
	if _, err := ParsePLA("garbage", 0, ""); err == nil {
		t.Fatal("malformed PLA must fail")
	}
}

func TestParseBLIF(t *testing.T) {
	p, err := ParseBLIF(testBLIF, "", "mux.blif")
	if err != nil {
		t.Fatal(err)
	}
	if p.Node != "inner" {
		t.Fatalf("auto-pick chose %q, want the unobservable gate", p.Node)
	}
	m, in, err := p.NewManager()
	if err != nil {
		t.Fatal(err)
	}
	// inner's ODC is ¬s, so the care set is s (variable 0).
	if in.C != m.MkVar(0) {
		t.Fatalf("care set is not s (size %d)", m.Size(in.C))
	}
	if _, err := ParseBLIF(testBLIF, "nosuch", ""); err == nil {
		t.Fatal("unknown node must fail")
	}
	if _, err := ParseBLIF(testBLIF, "s", ""); err == nil {
		t.Fatal("selecting a primary input must fail")
	}
}

// TestBuildOnSharedManager checks the server's usage pattern: one manager,
// grown on demand, rebuilding many instances; results must equal the
// fresh-manager ones (BDD sizes are canonical).
func TestBuildOnSharedManager(t *testing.T) {
	specs := []string{"d1 01", "d1 01 1d 01", "01"}
	shared := bdd.New(1)
	for _, s := range specs {
		p, err := FromSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		for shared.NumVars() < p.Vars {
			shared.AddVar()
		}
		in, err := p.Build(shared)
		if err != nil {
			t.Fatal(err)
		}
		fresh, want, err := p.NewManager()
		if err != nil {
			t.Fatal(err)
		}
		if shared.Size(in.F) != fresh.Size(want.F) || shared.Size(in.C) != fresh.Size(want.C) {
			t.Fatalf("spec %q: shared sizes differ from fresh", s)
		}
	}
	// Too few variables must fail cleanly, not panic.
	p, _ := FromSpec("d1 01 1d 01")
	if _, err := p.Build(bdd.New(1)); err == nil {
		t.Fatal("Build on an undersized manager must fail")
	}
}

func TestParseDispatch(t *testing.T) {
	if _, err := Parse(KindSpec, "d1 01", 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(KindPLA, testPLA, 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(KindBLIF, testBLIF, 0, "inner"); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse("kiss", "x", 0, ""); err == nil {
		t.Fatal("unknown format must fail")
	}
}

func TestCorpus(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t.pla"), []byte(testPLA), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "m.blif"), []byte(testBLIF), 0o644); err != nil {
		t.Fatal(err)
	}
	corpus := `
# mixed corpus
d1 01 1d 01
@pla t.pla 1
@blif m.blif inner

11 d0
`
	probs, err := LoadCorpus(strings.NewReader(corpus), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 4 {
		t.Fatalf("got %d problems, want 4", len(probs))
	}
	wantKinds := []Kind{KindSpec, KindPLA, KindBLIF, KindSpec}
	for i, p := range probs {
		if p.Kind != wantKinds[i] {
			t.Fatalf("problem %d: kind %s, want %s", i, p.Kind, wantKinds[i])
		}
		if _, _, err := p.NewManager(); err != nil {
			t.Fatalf("problem %d (%s): %v", i, p.Label, err)
		}
	}
	// Raw is self-contained: file-based problems re-parse from Raw alone.
	if _, err := Parse(KindPLA, probs[1].Raw, probs[1].Output, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(KindBLIF, probs[2].Raw, 0, probs[2].Node); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{"@pla", "@kiss t.pla", "@pla missing.pla", "@pla t.pla x"} {
		if _, err := ExpandLine(bad, dir); err == nil {
			t.Fatalf("line %q must fail", bad)
		}
	}
	if _, err := LoadCorpus(strings.NewReader("# only comments\n"), dir); err == nil {
		t.Fatal("empty corpus must fail")
	}
}

func TestCorpusNetBLIF(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "m.blif"), []byte(testBLIF), 0o644); err != nil {
		t.Fatal(err)
	}

	probs, err := LoadCorpus(strings.NewReader("@netblif m.blif\n"), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 2 {
		t.Fatalf("got %d problems, want 2 (inner and f)", len(probs))
	}
	nodes := map[string]bool{}
	for _, p := range probs {
		if p.Kind != KindBLIF {
			t.Fatalf("kind %s, want blif", p.Kind)
		}
		nodes[p.Node] = true
		if _, _, err := p.NewManager(); err != nil {
			t.Fatalf("%s: %v", p.Label, err)
		}
	}
	if !nodes["inner"] || !nodes["f"] {
		t.Fatalf("expanded nodes %v, want inner and f", nodes)
	}

	// Expansion dedups against explicit @blif lines via CanonicalKey:
	// the inner instance is listed twice but loaded once.
	probs, err = LoadCorpus(strings.NewReader("@blif m.blif inner\n@netblif m.blif\n"), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 2 {
		t.Fatalf("got %d problems, want 2 after dedup", len(probs))
	}

	for _, bad := range []string{"@netblif", "@netblif m.blif extra", "@netblif missing.blif"} {
		if _, err := ExpandLine(bad, dir); err == nil {
			t.Fatalf("line %q must fail", bad)
		}
	}
}
