// Package stats provides small aggregation and plain-text rendering
// helpers for the experiment harness: aligned tables and competition
// ranking.
package stats

import "strings"

// Align selects column alignment in a rendered table.
type Align int

// Column alignments.
const (
	Left Align = iota
	Right
)

// Table is a simple aligned plain-text table.
type Table struct {
	Title   string
	Headers []string
	Aligns  []Align
	Rows    [][]string
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// String renders the table with single-space padding and a rule under the
// header.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(c)
			if t.align(i) == Right {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
			} else {
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for i, w := range widths {
		if i > 0 {
			total += 2
		}
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func (t *Table) align(i int) Align {
	if i < len(t.Aligns) {
		return t.Aligns[i]
	}
	return Left
}

// CompetitionRanks assigns "1224"-style competition ranks to the given
// totals: each entry's rank is one plus the number of strictly smaller
// values (smaller is better).
func CompetitionRanks(totals []int64) []int {
	ranks := make([]int, len(totals))
	for i, v := range totals {
		r := 1
		for _, w := range totals {
			if w < v {
				r++
			}
		}
		ranks[i] = r
	}
	return ranks
}
