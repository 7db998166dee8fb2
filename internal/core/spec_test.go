package core

import (
	"strings"
	"testing"

	"bddmin/internal/bdd"
)

func TestParseSpecBasics(t *testing.T) {
	m := bdd.New(2)
	in := MustParseSpec(m, "d1 01")
	// f has value 1 at minterms 1 and 3, 0 at 2, don't care at 0.
	if m.Eval(in.C, []bool{false, false}) {
		t.Fatal("position 0 must be don't care")
	}
	for _, tc := range []struct {
		asn  []bool
		f, c bool
	}{
		{[]bool{false, true}, true, true},
		{[]bool{true, false}, false, true},
		{[]bool{true, true}, true, true},
	} {
		if m.Eval(in.C, tc.asn) != tc.c || m.Eval(in.F, tc.asn) != tc.f {
			t.Fatalf("spec mismatch at %v", tc.asn)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	m := bdd.New(2)
	if _, err := ParseSpec(m, "01x"); err == nil {
		t.Fatal("invalid character must error")
	}
	if _, err := ParseSpec(m, "011"); err == nil {
		t.Fatal("non-power-of-two length must error")
	}
	if _, err := ParseSpec(m, ""); err == nil {
		t.Fatal("empty spec must error")
	}
	if _, err := ParseSpec(m, "01 01 01 01"); err == nil {
		t.Fatal("spec needing more variables than the manager has must error")
	}
	if in := MustParseSpec(m, "d1 01"); in.C == bdd.One {
		t.Fatal("a spec with don't cares must not parse to care set One")
	}
}

// TestCheckSpec: CheckSpec accepts exactly what ParseSpec accepts, with the
// same variable count and the same error text, without a manager.
func TestCheckSpec(t *testing.T) {
	m := bdd.New(4)
	for _, spec := range []string{"", "1", "01x", "011", "d1 01", "(d1 01) (1d 01)", "01 01 01 01 01 01 01 01", "01\r01", "xyz"} {
		n, err := CheckSpec(spec)
		_, perr := ParseSpec(m, spec)
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("CheckSpec(%q) err = %v, ParseSpec err = %v", spec, err, perr)
		}
		if err != nil {
			continue
		}
		if want := len(strings.NewReplacer(" ", "", "(", "", ")", "").Replace(spec)); 1<<n != want {
			t.Fatalf("CheckSpec(%q) = %d variables for %d symbols", spec, n, want)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	m := bdd.New(3)
	for _, spec := range []string{"d1 01", "d1 01 1d 01", "1d d1 d0 0d", "11 11 00 00"} {
		in := MustParseSpec(m, spec)
		n := 2
		if len(strings.ReplaceAll(spec, " ", "")) == 8 {
			n = 3
		}
		if got := FormatSpec(m, in, n); got != spec {
			t.Fatalf("round trip %q -> %q", spec, got)
		}
	}
}

func TestParseSpecSingleVariable(t *testing.T) {
	m := bdd.New(1)
	in := MustParseSpec(m, "01")
	if in.F != m.MkVar(0) || in.C != bdd.One {
		t.Fatal("spec 01 must be the single positive literal, fully cared")
	}
	in = MustParseSpec(m, "d1")
	if in.C != m.MkVar(0) {
		t.Fatal("spec d1 care set must be x0")
	}
}

func TestMustParseSpecPanics(t *testing.T) {
	m := bdd.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseSpec must panic on bad input")
		}
	}()
	MustParseSpec(m, "bogus")
}
