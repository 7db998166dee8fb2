package logic

import (
	"bufio"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// lineParsers are the three line-oriented parsers, each on its sample.
var lineParsers = []struct {
	name   string
	sample string
	parse  func(string) error
}{
	{"pla", samplePLA, func(s string) error { _, err := ParsePLAString(s); return err }},
	{"blif", sampleBLIF, func(s string) error { _, err := ParseBLIFString(s); return err }},
	{"kiss", sampleKISS, func(s string) error { _, err := ParseKISS(strings.NewReader(s)); return err }},
}

// TestParsersAllocateSmall: a file of a few lines costs a buffer of its
// own size, not one sized for the longest line the parsers accept.
func TestParsersAllocateSmall(t *testing.T) {
	const runs = 20
	for _, p := range lineParsers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := p.parse(p.sample); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 64<<10 {
			t.Errorf("%s: parsing a %d-byte sample allocates %d bytes per call, want under 64 KiB", p.name, len(p.sample), perCall)
		}
	}
}

// TestParsersLineLimit: every parser accepts a line of up to 1 MiB,
// newline included, and fails a longer one with bufio.ErrTooLong.
func TestParsersLineLimit(t *testing.T) {
	for _, p := range lineParsers {
		for _, n := range []int{maxLineBytes - 1, maxLineBytes, maxLineBytes + 1} {
			src := "#" + strings.Repeat("x", n-1) + "\n" + p.sample
			err := p.parse(src)
			if fits := n < maxLineBytes; fits && err != nil {
				t.Errorf("%s: a %d-byte comment line fails: %v", p.name, n, err)
			} else if !fits && !errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("%s: a %d-byte line gives %v, want bufio.ErrTooLong", p.name, n, err)
			}
		}
	}
}
