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
// consecutive iterations and wants 0 allocs/op from every one: the stamped
// traversals, ITE, constrain, GC, the match kernels, and an opt_lv pass,
// whose pooled scratch keeps its tables at their peak size. The race
// detector drops pooled scratches at random, so -race builds skip the
// opt_lv pass.
func TestKernelsDoNotAllocate(t *testing.T) {
	for _, mb := range Micros {
		if mb.Name == "levelmatch" && raceEnabled {
			continue
		}
		step, i := mb.Setup(), 0
		if got := testing.AllocsPerRun(200, func() { step(i); i++ }); got != 0 {
			t.Errorf("micro/%s: %v allocs/op, want 0", mb.Name, got)
		}
	}
}
