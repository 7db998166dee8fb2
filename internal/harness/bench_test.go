package harness

import (
	"fmt"
	"testing"
)

// benchNames is large enough that the pool has real work to balance but
// small enough for -bench runs to stay quick; the full suite is
// cmd/experiments' (and cmd/benchdump's) job.
var benchNames = []string{"tlc", "minmax5", "tbk", "s386"}

var benchRC = RunConfig{Collector: Config{LowerBoundCubes: 100}}

// BenchmarkRunSuite sweeps the worker count; one worker is the baseline,
// and with 4 workers on 4+ cores the suite wall-clock should beat it by
// the slowest benchmark's share.
func BenchmarkRunSuite(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := RunSuite(benchNames, benchRC, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
