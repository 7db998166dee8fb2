// Command benchdump measures the kernel's hot paths and writes the results
// as BENCH_kernel.json, the committed record that EXPERIMENTS.md's kernel
// table is generated from.
//
// Each entry is one of internal/kernelbench's loops (micro/<name>) run
// under testing.Benchmark three times, with the median ns/op, its min and
// max, and the median run's allocs/op. To profile one loop, run
// `go test -bench 'Micro/<name>' -cpuprofile F` in internal/kernelbench.
//
// Usage:
//
//	benchdump [-o BENCH_kernel.json] [-q]
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"bddmin/internal/kernelbench"
)

// schema identifies the BENCH_kernel.json layout version.
const schema = "bddmin-bench-kernel/8"

// runs is how many times each micro runs; the record keeps the median and
// the range.
const runs = 3

// report is the BENCH_kernel.json document.
type report struct {
	Schema     string     `json:"schema"`
	Timestamp  time.Time  `json:"timestamp"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Runs       int        `json:"runs"`
	Benchmarks []benchRow `json:"benchmarks"`
}

// benchRow is one micro-benchmark's median testing.BenchmarkResult by
// ns/op, with the fastest and slowest run's ns/op.
type benchRow struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func main() {
	var (
		outFile = flag.String("o", "BENCH_kernel.json", "output file (\"-\" for stdout)")
		quiet   = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	rep := report{
		Schema:     schema,
		Timestamp:  time.Now().UTC(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Runs:       runs,
	}
	for _, mb := range kernelbench.Micros {
		res := make([]testing.BenchmarkResult, runs)
		for i := range res {
			res[i] = testing.Benchmark(mb.Bench)
		}
		slices.SortFunc(res, func(a, b testing.BenchmarkResult) int { return cmp.Compare(a.NsPerOp(), b.NsPerOp()) })
		med := res[runs/2]
		row := benchRow{
			Name:        "micro/" + mb.Name,
			Iterations:  med.N,
			NsPerOp:     float64(med.NsPerOp()),
			NsPerOpMin:  float64(res[0].NsPerOp()),
			NsPerOpMax:  float64(res[runs-1].NsPerOp()),
			AllocsPerOp: med.AllocsPerOp(),
			BytesPerOp:  med.AllocedBytesPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%-24s %12.1f ns/op (%.1f–%.1f) %6d allocs/op\n",
				row.Name, row.NsPerOp, row.NsPerOpMin, row.NsPerOpMax, row.AllocsPerOp)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		data = append(data, '\n')
		if *outFile == "-" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(*outFile, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *outFile != "-" && !*quiet {
		fmt.Fprintf(os.Stderr, "report written to %s\n", *outFile)
	}
}
