package bddmin_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"bddmin/internal/obs"
)

var updateDocs = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks")

// EXPERIMENTS.md's kernel table, Table 3 runtimes, Section 4.2 scalars and
// extended Table 3 are generated from the committed BENCH_kernel.json,
// experiments_output.txt and experiments_extended.txt, so the prose cannot
// drift from the files it quotes. After regenerating any of them, rewrite
// the blocks with `go test -run TestExperimentsDoc -update .`.
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
		{"section42", section42Block(t)},
		{"extended-table3", extendedBlock(t)},
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

// allCallsRows returns the rows of the "Table 3 — all calls" table in an
// experiments report, split into fields: heuristic, total size, % of min,
// runtime and rank, of which the low_bd and min rows have the first three.
func allCallsRows(t *testing.T, path string) [][]string {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "Table 3 — all calls")
	if !ok {
		t.Fatalf("%s has no \"Table 3 — all calls\"", path)
	}
	var rows [][]string
	// The first three lines are the rest of the title, the header and
	// its rule; the table ends at a blank line.
	for _, line := range strings.Split(table, "\n")[3:] {
		if strings.TrimSpace(line) == "" {
			break
		}
		rows = append(rows, strings.Fields(line))
	}
	if len(rows) == 0 {
		t.Fatalf("%s: Table 3 — all calls has no rows", path)
	}
	return rows
}

// runtimeBlock renders the Runtime column of experiments_output.txt's
// "Table 3 — all calls" as a table, slowest heuristic first. The report,
// not the CSV, is the source: it sums the per-call times before rounding.
func runtimeBlock(t *testing.T) string {
	type row struct {
		name, secs string
		v          float64
	}
	var rows []row
	for _, f := range allCallsRows(t, "experiments_output.txt") {
		if len(f) != 5 {
			continue
		}
		secs := strings.TrimSuffix(f[3], "s")
		v, err := strconv.ParseFloat(secs, 64)
		if err != nil {
			t.Fatalf("experiments_output.txt: Table 3 row %q: %v", f, err)
		}
		rows = append(rows, row{f[0], secs, v})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	var b strings.Builder
	b.WriteString("| heuristic | runtime (s) |\n|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s |\n", r.name, r.secs)
	}
	return b.String()
}

// extendedBlock renders experiments_extended.txt's "Table 3 — all calls"
// as a table of % of min and rank per heuristic, in the report's order.
func extendedBlock(t *testing.T) string {
	var b strings.Builder
	b.WriteString("| heuristic | % of min | rank |\n|---|---|---|\n")
	for _, f := range allCallsRows(t, "experiments_extended.txt") {
		rank := "—"
		if len(f) == 5 {
			rank = f[4]
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", f[0], f[2], rank)
	}
	return b.String()
}

// section42Block renders the "Section 4.2 summary" lines of
// experiments_output.txt as a table of our value against the paper's.
func section42Block(t *testing.T) string {
	data, err := os.ReadFile("experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, summary, ok := strings.Cut(string(data), "Section 4.2 summary")
	if !ok {
		t.Fatal("experiments_output.txt has no \"Section 4.2 summary\"")
	}
	var b strings.Builder
	b.WriteString("| quantity | ours | paper |\n|---|---|---|\n")
	// The first line is the rest of the title; the block ends at a blank line.
	for _, line := range strings.Split(summary, "\n")[1:] {
		quantity, value, ok := strings.Cut(line, ":")
		if !ok {
			break
		}
		ours, paper, _ := strings.Cut(value, "[paper:")
		paper = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(paper), "]"))
		if paper == "" {
			paper = "—"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n",
			strings.ReplaceAll(strings.TrimSpace(quantity), "|", "\\|"), strings.TrimSpace(ours), paper)
	}
	return b.String()
}

// The JSON tags on the event types are the trace's wire schema, and the
// event-schema table in docs/ARCHITECTURE.md lists each kind's keys in tag
// order, marking with "?" the keys omitempty drops, so a tag change that
// the table does not follow fails here.
func TestEventSchemaDoc(t *testing.T) {
	data, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(data), "### Event schema")
	table, _, _ = strings.Cut(table, "\n### ")
	events := map[string]obs.Event{}
	for _, ev := range []obs.Event{
		obs.WindowEvent{}, obs.HeuristicEvent{}, obs.LevelMatchEvent{}, obs.CacheEvent{},
		obs.GCEvent{}, obs.BenchmarkEvent{}, obs.CallEvent{}, obs.AbortEvent{},
		obs.ServeEvent{}, obs.RouteEvent{}, obs.NetworkEvent{},
	} {
		events[ev.Kind()] = ev
	}
	paren := regexp.MustCompile(`\([^()]*\)`)
	code := regexp.MustCompile("`([^`]*)`")
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		kind := strings.Trim(cells[0], "`")
		if kind == "ev" {
			continue // the header
		}
		ev, ok := events[kind]
		if !ok {
			t.Errorf("ARCHITECTURE.md: event-schema row for unknown kind %q", kind)
			continue
		}
		rows++
		// Parenthesized notes name values, not keys.
		var got []string
		for _, m := range code.FindAllStringSubmatch(paren.ReplaceAllString(cells[len(cells)-1], ""), -1) {
			got = append(got, m[1])
		}
		if want := schemaKeys(reflect.TypeOf(ev)); !reflect.DeepEqual(got, want) {
			t.Errorf("ARCHITECTURE.md: %s row lists %q, the JSON tags give %q", kind, got, want)
		}
	}
	if rows != len(events) {
		t.Errorf("ARCHITECTURE.md: event-schema table has %d rows, want one per kind (%d)", rows, len(events))
	}
}

// Every backticked identifier in the Code column of docs/ARCHITECTURE.md's
// paper-to-code map is declared (as a function, method, type, variable or
// constant) in a package its row links to, or, written pkg.Name, in
// internal/pkg, so the map cannot name code that does not exist.
func TestPaperMapIdentifiers(t *testing.T) {
	data, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(data), "## Paper-to-code map")
	table, _, _ = strings.Cut(table, "\n## ")
	link := regexp.MustCompile(`\]\(\.\./([^)]+)\)`)
	code := regexp.MustCompile("`([^`]*)`")
	decls := map[string]map[string]bool{}
	checked := 0
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| Paper |") {
			continue
		}
		cells := strings.Split(strings.Trim(strings.ReplaceAll(line, `\|`, ""), "| "), " | ")
		col := cells[len(cells)-1]
		var dirs []string
		for _, m := range link.FindAllStringSubmatch(col, -1) {
			dir := m[1]
			if strings.HasSuffix(dir, ".go") {
				dir = filepath.Dir(dir)
			}
			dirs = append(dirs, dir)
		}
		for _, m := range code.FindAllStringSubmatch(col, -1) {
			name, where := m[1], dirs
			if pkg, id, ok := strings.Cut(name, "."); ok {
				name, where = id, []string{"internal/" + pkg}
			}
			found := false
			for _, dir := range where {
				if decls[dir] == nil {
					decls[dir] = declaredNames(t, dir)
				}
				found = found || decls[dir][name]
			}
			if !found {
				t.Errorf("ARCHITECTURE.md: %q is declared in none of %q (row %q)", m[1], where, cells[0])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("ARCHITECTURE.md: the paper-to-code map names no identifiers")
	}
}

// declaredNames returns the top-level names (methods included) that the
// non-test Go files in dir declare.
func declaredNames(t *testing.T, dir string) map[string]bool {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("ARCHITECTURE.md links to %s, which holds no Go files", dir)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// schemaKeys renders a struct's JSON keys as the event-schema table writes
// them: "key?" for omitempty, and "key[]" for an array of objects followed
// by "{a, b, ...}", the element's keys.
func schemaKeys(typ reflect.Type) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if opts == "omitempty" {
			name += "?"
		}
		if f.Type.Kind() != reflect.Slice {
			keys = append(keys, name)
			continue
		}
		keys = append(keys, name+"[]", "{"+strings.Join(schemaKeys(f.Type.Elem()), ", ")+"}")
	}
	return keys
}
