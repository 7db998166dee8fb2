// Command benchdump measures the kernel's hot paths and writes the results
// as BENCH_kernel.json, the committed record that EXPERIMENTS.md's kernel
// table is generated from.
//
// Each entry is one of internal/kernelbench's loops (micro/<name>) run
// under testing.Benchmark, with ns/op and allocs/op. To profile one loop,
// run `go test -bench 'Micro/<name>' -cpuprofile F` in
// internal/kernelbench.
//
// Usage:
//
//	benchdump [-o BENCH_kernel.json] [-q]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"bddmin/internal/kernelbench"
)

// schema identifies the BENCH_kernel.json layout version.
const schema = "bddmin-bench-kernel/7"

// report is the BENCH_kernel.json document.
type report struct {
	Schema     string     `json:"schema"`
	Timestamp  time.Time  `json:"timestamp"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Benchmarks []benchRow `json:"benchmarks"`
}

// benchRow is one micro-benchmark's testing.BenchmarkResult.
type benchRow struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
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
	}
	for _, mb := range kernelbench.Micros {
		res := testing.Benchmark(mb.Bench)
		row := benchRow{
			Name:        "micro/" + mb.Name,
			Iterations:  res.N,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%-24s %12.1f ns/op %6d allocs/op\n", row.Name, row.NsPerOp, row.AllocsPerOp)
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
