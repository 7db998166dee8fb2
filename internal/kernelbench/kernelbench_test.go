package kernelbench

import "testing"

// BenchmarkMicro runs each published loop under its BENCH_kernel.json
// name: `go test -bench 'Micro/ite' -cpuprofile cpu.out` profiles
// micro/ite.
func BenchmarkMicro(b *testing.B) {
	for _, mb := range Micros {
		b.Run(mb.Name, mb.Bench)
	}
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// TestKernelsDoNotAllocate replays each published loop for 200
// consecutive iterations. The stamped traversals, ITE, constrain, GC and
// the match kernels make 0 allocs/op, and one opt_lv pass makes at most
// 28 (EXPERIMENTS.md names where they come from). The race detector drops
// pooled level-matching scratches at random, so -race builds check only
// the zero-allocation loops.
func TestKernelsDoNotAllocate(t *testing.T) {
	for _, mb := range Micros {
		want := 0.0
		if mb.Name == "levelmatch" {
			if raceEnabled {
				continue
			}
			want = 28
		}
		step, i := mb.Setup(), 0
		if got := testing.AllocsPerRun(200, func() { step(i); i++ }); got > want {
			t.Errorf("micro/%s: %v allocs/op, want at most %v", mb.Name, got, want)
		}
	}
}
