package bddmin_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateDocs = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks")

// EXPERIMENTS.md's kernel table and Table 3 runtimes are generated from the
// committed BENCH_kernel.json and experiments_output.txt, so the prose
// cannot drift from the files it quotes. After regenerating either file,
// rewrite the blocks with `go test -run TestExperimentsDoc -update .`.
func TestExperimentsDoc(t *testing.T) {
	const path = "EXPERIMENTS.md"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, b := range []struct{ name, body string }{
		{"kernel", kernelBlock(t)},
		{"table3-runtime", runtimeBlock(t)},
	} {
		begin, end := "<!-- begin "+b.name+" -->\n", "<!-- end "+b.name+" -->"
		i := strings.Index(doc, begin)
		j := strings.Index(doc, end)
		if i < 0 || j < i {
			t.Fatalf("%s: no %q … %q block", path, begin, end)
		}
		i += len(begin)
		if doc[i:j] != b.body {
			if !*updateDocs {
				t.Errorf("%s: %s block differs from the committed data (rerun with -update)\n got:\n%s\nwant:\n%s",
					path, b.name, doc[i:j], b.body)
			}
			doc = doc[:i] + b.body + doc[j:]
		}
	}
	if *updateDocs {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// kernelBlock renders BENCH_kernel.json as a table of ns/op and allocs/op
// per micro-benchmark.
func kernelBlock(t *testing.T) string {
	data, err := os.ReadFile("BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema     string    `json:"schema"`
		Timestamp  time.Time `json:"timestamp"`
		GoMaxProcs int       `json:"gomaxprocs"`
		Benchmarks []struct {
			Name        string  `json:"name"`
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_kernel.json: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Schema `%s`, written %s with GOMAXPROCS=%d:\n\n",
		rep.Schema, rep.Timestamp.Format("2006-01-02"), rep.GoMaxProcs)
	b.WriteString("| benchmark | ns/op | allocs/op |\n|---|---|---|\n")
	for _, r := range rep.Benchmarks {
		fmt.Fprintf(&b, "| %s | %s | %d |\n", r.Name, groupDigits(fmt.Sprintf("%.0f", r.NsPerOp)), r.AllocsPerOp)
	}
	return b.String()
}

// groupDigits puts a space between groups of three digits.
func groupDigits(s string) string {
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + " " + s[i:]
	}
	return s
}

// runtimeBlock renders the Runtime column of experiments_output.txt's
// "Table 3 — all calls" as a table, slowest heuristic first. The report,
// not the CSV, is the source: it sums the per-call times before rounding.
func runtimeBlock(t *testing.T) string {
	data, err := os.ReadFile("experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "Table 3 — all calls")
	if !ok {
		t.Fatal("experiments_output.txt has no \"Table 3 — all calls\"")
	}
	type row struct {
		name, secs string
		v          float64
	}
	var rows []row
	for _, line := range strings.Split(table, "\n") {
		if strings.TrimSpace(line) == "" {
			break
		}
		// heuristic, total size, % of min, runtime, rank; the low_bd and
		// min rows have no runtime, the title and header more fields.
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		secs := strings.TrimSuffix(f[3], "s")
		v, err := strconv.ParseFloat(secs, 64)
		if err != nil {
			t.Fatalf("experiments_output.txt: Table 3 row %q: %v", line, err)
		}
		rows = append(rows, row{f[0], secs, v})
	}
	if len(rows) == 0 {
		t.Fatal("experiments_output.txt: Table 3 — all calls has no runtime rows")
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	var b strings.Builder
	b.WriteString("| heuristic | runtime (s) |\n|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s |\n", r.name, r.secs)
	}
	return b.String()
}
