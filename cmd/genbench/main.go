// Command genbench materializes the generated benchmark suite as BLIF
// netlists, so the substituted machines can be inspected, simulated in
// other tools, or fed back through cmd/verifyfsm.
//
// Usage:
//
//	genbench -name s344 [-o s344.blif]     # one machine (default stdout)
//	genbench -all -dir /tmp/suite-blif      # the whole suite
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"bddmin/internal/circuits"
	"bddmin/internal/logic"
)

func main() {
	var (
		name   = flag.String("name", "", "benchmark name (see verifyfsm -list)")
		out    = flag.String("o", "", "output file (default stdout)")
		all    = flag.Bool("all", false, "write every suite machine")
		dir    = flag.String("dir", ".", "output directory for -all")
		orders = flag.Bool("orders", false, "report BDD sizes under declaration vs DFS variable order for every suite machine")
	)
	flag.Parse()

	switch {
	case *orders:
		fmt.Printf("%-10s %12s %12s\n", "benchmark", "decl order", "dfs order")
		for _, e := range circuits.Suite() {
			net := e.Build()
			decl, dfs := logic.CompareOrders(net)
			fmt.Printf("%-10s %12d %12d\n", e.Name, decl, dfs)
		}
	case *all:
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fail(err)
		}
		for _, e := range circuits.Suite() {
			path := filepath.Join(*dir, e.Name+".blif")
			f, err := os.Create(path)
			if err != nil {
				fail(err)
			}
			if err := logic.WriteBLIF(f, e.Build()); err != nil {
				fail(err)
			}
			f.Close()
			fmt.Printf("wrote %s (%d inputs, %d latches)\n", path, e.Inputs, e.Latches)
		}
	case *name != "":
		info, err := circuits.ByName(*name)
		if err != nil {
			fail(err)
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := logic.WriteBLIF(w, info.Build()); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
