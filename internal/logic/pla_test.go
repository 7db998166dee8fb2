package logic

import (
	"testing"

	"bddmin/internal/bdd"
)

const samplePLA = `
# two-output example, fd type (offset implicit)
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

func TestParsePLABasics(t *testing.T) {
	p, err := ParsePLAString(samplePLA)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInputs != 3 || p.NumOutputs != 2 || len(p.Rows) != 4 {
		t.Fatalf("shape: %d/%d/%d", p.NumInputs, p.NumOutputs, len(p.Rows))
	}
	if p.Type != "fd" || p.InputNames[0] != "a" || p.OutputNames[1] != "g" {
		t.Fatal("metadata")
	}
}

func TestPLAOutputISFSemantics(t *testing.T) {
	p, err := ParsePLAString(samplePLA)
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.New(3)
	vars := []bdd.Var{0, 1, 2}
	f0, c0, err := p.OutputISF(m, vars, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Output f: onset = 1-1; dc rows: 01- (out '-'), 110 ('-').
	eval := func(r bdd.Ref, a, b, c bool) bool { return m.Eval(r, []bool{a, b, c}) }
	if !eval(f0, true, false, true) || !eval(c0, true, false, true) {
		t.Fatal("onset point 101 must be cared and set")
	}
	if eval(c0, false, true, true) {
		t.Fatal("011 must be don't care for f")
	}
	if eval(c0, true, true, false) {
		t.Fatal("110 must be don't care for f")
	}
	// Unlisted minterm: implicit offset (type fd) — cared, value 0.
	if !eval(c0, false, false, true) || eval(f0, false, false, true) {
		t.Fatal("001 must be cared offset")
	}

	f1, c1, err := p.OutputISF(m, vars, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !eval(f1, false, true, true) || !eval(c1, false, true, true) {
		t.Fatal("g onset point 011")
	}
	if !eval(f1, false, false, false) {
		t.Fatal("g onset point 000")
	}
	if eval(c1, true, false, true) {
		t.Fatal("101 must be don't care for g (out '-')")
	}
}

func TestPLATypeFR(t *testing.T) {
	src := `
.i 2
.o 1
.type fr
11 1
00 0
.e
`
	p, err := ParsePLAString(src)
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.New(2)
	f, c, err := p.OutputISF(m, []bdd.Var{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Eval(c, []bool{true, true}) || !m.Eval(f, []bool{true, true}) {
		t.Fatal("11 onset")
	}
	if !m.Eval(c, []bool{false, false}) || m.Eval(f, []bool{false, false}) {
		t.Fatal("00 offset")
	}
	if m.Eval(c, []bool{true, false}) || m.Eval(c, []bool{false, true}) {
		t.Fatal("unlisted minterms must be don't care under fr")
	}
}

func TestPLATypeF(t *testing.T) {
	src := ".i 2\n.o 1\n.type f\n1- 1\n.e\n"
	p, err := ParsePLAString(src)
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.New(2)
	f, c, err := p.OutputISF(m, []bdd.Var{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c != bdd.One {
		t.Fatal("type f is fully specified")
	}
	if f != m.MkVar(0) {
		t.Fatal("onset must be the first variable")
	}
}

func TestPLATypeFDR(t *testing.T) {
	src := `
.i 2
.o 1
.type fdr
11 1
10 0
01 -
.e
`
	p, err := ParsePLAString(src)
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.New(2)
	f, c, err := p.OutputISF(m, []bdd.Var{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Eval(c, []bool{true, true}) || !m.Eval(f, []bool{true, true}) {
		t.Fatal("onset 11")
	}
	if !m.Eval(c, []bool{true, false}) || m.Eval(f, []bool{true, false}) {
		t.Fatal("offset 10")
	}
	if m.Eval(c, []bool{false, true}) {
		t.Fatal("dc 01")
	}
	if !m.Eval(c, []bool{false, false}) {
		t.Fatal("unspecified 00 resolves to care (offset) under fdr")
	}
}

func TestParsePLAErrors(t *testing.T) {
	cases := map[string]string{
		"cube before .i": "11 1\n",
		"bad .i":         ".i x\n.o 1\n",
		"width mismatch": ".i 2\n.o 1\n111 1\n",
		"bad in symbol":  ".i 2\n.o 1\n1x 1\n",
		"bad out symbol": ".i 2\n.o 1\n11 2\n",
		"bad type":       ".i 2\n.o 1\n.type xyz\n",
		"bad directive":  ".i 2\n.o 1\n.kiss\n",
		"missing io":     "# nothing\n",
		"three fields":   ".i 2\n.o 1\n11 1 extra\n",
		"o after cubes":  ".i 1\n.o 1\n1 1\n.o 2\n1 11\n",
	}
	for name, src := range cases {
		if _, err := ParsePLAString(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestPLAOutputISFErrors(t *testing.T) {
	p, _ := ParsePLAString(".i 2\n.o 1\n11 1\n")
	m := bdd.New(2)
	if _, _, err := p.OutputISF(m, []bdd.Var{0}, 0); err == nil {
		t.Fatal("var count mismatch must error")
	}
	if _, _, err := p.OutputISF(m, []bdd.Var{0, 1}, 5); err == nil {
		t.Fatal("output index out of range must error")
	}
}
