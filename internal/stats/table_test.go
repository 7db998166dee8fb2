package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
		Aligns:  []Align{Left, Right},
	}
	tbl.AddRow("alpha", "1")
	tbl.AddRow("b", "22222")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "demo" {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Fatalf("header line %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Fatalf("rule line %q", lines[2])
	}
	// Right-aligned numbers end at the same column.
	if !strings.HasSuffix(lines[3], "    1") {
		t.Fatalf("right alignment: %q", lines[3])
	}
	if !strings.HasSuffix(lines[4], "22222") {
		t.Fatalf("right alignment: %q", lines[4])
	}
	// All data lines share the same width.
	if len(lines[3]) != len(lines[4]) {
		t.Fatal("rows must be padded to equal width")
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tbl := Table{Headers: []string{"a"}}
	tbl.AddRow("x", "dropped")
	if strings.Contains(tbl.String(), "dropped") {
		t.Fatal("extra cells must be dropped")
	}
}

func TestTableDefaultAlign(t *testing.T) {
	tbl := Table{Headers: []string{"a", "b"}} // no Aligns: all Left
	tbl.AddRow("x", "y")
	out := tbl.String()
	if !strings.Contains(out, "x  y") {
		t.Fatalf("default left alignment: %q", out)
	}
}

func TestCompetitionRanks(t *testing.T) {
	ranks := CompetitionRanks([]int64{30, 10, 20, 10, 40})
	want := []int{4, 1, 3, 1, 5}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
	if len(CompetitionRanks(nil)) != 0 {
		t.Fatal("empty input")
	}
}
