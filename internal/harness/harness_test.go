package harness

import (
	"strings"
	"testing"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/circuits"
	"bddmin/internal/core"
)

// smallSuiteRecords runs two small benchmarks once and caches the result
// for the aggregation tests.
var cachedCollector *Collector

func suiteRecords(t *testing.T) *Collector {
	t.Helper()
	if cachedCollector != nil {
		return cachedCollector
	}
	col, runs, err := RunSuite([]string{"tlc", "minmax5", "tbk"}, RunConfig{
		Collector: Config{Validate: true, LowerBoundCubes: 200},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("expected 3 runs, got %d", len(runs))
	}
	if len(col.Records) == 0 {
		t.Fatal("no minimization calls recorded")
	}
	cachedCollector = col
	return col
}

func TestCollectorFiltersTrivial(t *testing.T) {
	m := bdd.New(4)
	col := NewCollector(Config{})
	col.SetBenchmark("unit")
	hook := col.Hook()
	f := m.Or(m.And(m.MkVar(0), m.MkVar(1)), m.MkVar(2))
	// Cube care set: filtered.
	hook(m, f, m.And(m.MkVar(0), m.MkVar(3)))
	// Care inside onset: filtered.
	hook(m, f, m.And(f, m.MkVar(3)))
	// Care inside offset: filtered.
	hook(m, f, m.AndNot(m.MkVar(3), f))
	if len(col.Records) != 0 || col.FilteredTrivial != 3 {
		t.Fatalf("records=%d filtered=%d, want 0/3", len(col.Records), col.FilteredTrivial)
	}
	// A genuine instance: recorded with all heuristics.
	c := m.Or(m.Xor(m.MkVar(0), m.MkVar(3)), m.MkVar(1))
	g := hook(m, f, c)
	if !m.Cover(g, f, c) {
		t.Fatal("hook must return a cover (constrain)")
	}
	if len(col.Records) != 1 {
		t.Fatalf("records=%d, want 1", len(col.Records))
	}
	rec := col.Records[0]
	if len(rec.Results) != len(core.RegistryWithBounds()) {
		t.Fatalf("heuristics recorded: %d", len(rec.Results))
	}
	if rec.Results["f_orig"].Size != m.Size(f) {
		t.Fatal("f_orig must record |f|")
	}
	if rec.MinSize > rec.Results["const"].Size || rec.LowerBound > rec.MinSize {
		t.Fatalf("ordering lb=%d min=%d const=%d", rec.LowerBound, rec.MinSize, rec.Results["const"].Size)
	}
	if rec.COnsetPct <= 0 || rec.COnsetPct >= 100 {
		t.Fatalf("c_onset = %v", rec.COnsetPct)
	}
}

func TestSuiteRunEndToEnd(t *testing.T) {
	col := suiteRecords(t)
	names := col.HeuristicNames()
	if len(names) != 12 {
		t.Fatalf("heuristic count %d, want 12", len(names))
	}
	// Every record: lb ≤ min ≤ every heuristic size; f_orig matches.
	for _, r := range col.Records {
		if r.LowerBound > r.MinSize {
			t.Fatalf("lb %d > min %d", r.LowerBound, r.MinSize)
		}
		for n, res := range r.Results {
			if res.Size < r.MinSize {
				t.Fatalf("%s beat min", n)
			}
		}
		if r.Benchmark == "" || r.Iteration == 0 {
			t.Fatal("record provenance missing")
		}
	}
}

func TestTable3Aggregation(t *testing.T) {
	col := suiteRecords(t)
	rows := Table3(col.Records, col.HeuristicNames())
	if rows[0].Name != "low_bd" || rows[1].Name != "min" {
		t.Fatal("low_bd and min rows must lead")
	}
	if rows[1].PctOfMin != 100 {
		t.Fatal("min row must be 100%")
	}
	if rows[0].TotalSize > rows[1].TotalSize {
		t.Fatal("lower bound total must not exceed min total")
	}
	// Heuristic rows sorted ascending, ranks consistent.
	for i := 3; i < len(rows); i++ {
		if rows[i].TotalSize < rows[i-1].TotalSize {
			t.Fatal("rows must be sorted by total size")
		}
	}
	for _, row := range rows[2:] {
		if row.Rank == 0 {
			t.Fatalf("heuristic row %s lacks a rank", row.Name)
		}
		if row.PctOfMin < 100 {
			t.Fatalf("%s beat min in aggregate: %.1f%%", row.Name, row.PctOfMin)
		}
	}
	text := RenderTable3(col.Records, col.HeuristicNames())
	for _, want := range []string{"Table 3", "low_bd", "min", "const", "opt_lv", "f_orig"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered Table 3 missing %q", want)
		}
	}
}

func TestTable4Properties(t *testing.T) {
	col := suiteRecords(t)
	names := Table4Names()
	mat := Table4(col.Records, names)
	for i := range names {
		if mat[i][i] != 0 {
			t.Fatal("diagonal must be zero (strict comparison)")
		}
		for j := range names {
			if mat[i][j] < 0 || mat[i][j] > 100 {
				t.Fatal("percentages out of range")
			}
			if mat[i][j]+mat[j][i] > 100+1e-9 {
				t.Fatal("win percentages of a pair cannot exceed 100")
			}
		}
	}
	// Nothing strictly beats min.
	minIdx := len(names) - 1
	for i := 0; i < minIdx; i++ {
		if mat[i][minIdx] != 0 {
			t.Fatalf("%s strictly beat min", names[i])
		}
	}
	text := RenderTable4(col.Records, names)
	if !strings.Contains(text, "Table 4") || !strings.Contains(text, "osm_bt") {
		t.Fatal("rendered Table 4 incomplete")
	}
}

func TestFigure3Properties(t *testing.T) {
	col := suiteRecords(t)
	for _, n := range Figure3Names() {
		pts := Figure3Curve(col.Records, n, 5)
		if len(pts) != 21 {
			t.Fatalf("%s: %d points", n, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].CallsPct < pts[i-1].CallsPct {
				t.Fatalf("%s: curve must be monotone", n)
			}
		}
		if pts[0].CallsPct < 0 || pts[len(pts)-1].CallsPct > 100 {
			t.Fatalf("%s: curve out of range", n)
		}
	}
	// min's curve is pegged at 100 from x=0.
	if pts := Figure3Curve(col.Records, "min", 50); pts[0].CallsPct != 100 {
		// "min" is not in Results; counted == 0 yields 0. Document: the
		// curve is only defined for real heuristics.
		if pts[0].CallsPct != 0 {
			t.Fatal("min curve should be empty (not a recorded heuristic)")
		}
	}
	text := RenderFigure3(col.Records, Figure3Names())
	for _, want := range []string{"Figure 3", "y-intercepts", "tsm_td"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered Figure 3 missing %q", want)
		}
	}
}

func TestSummaryScalars(t *testing.T) {
	col := suiteRecords(t)
	s := Summarize(col)
	if s.Calls != len(col.Records) {
		t.Fatal("call count")
	}
	if s.MinOverLB < 1 {
		t.Fatalf("min/lb ratio %v < 1", s.MinOverLB)
	}
	if s.ReductionAll < 1 {
		t.Fatalf("overall reduction %v < 1 — minimization made things worse on aggregate", s.ReductionAll)
	}
	if s.BucketCalls[0]+s.BucketCalls[1]+s.BucketCalls[2] != s.Calls {
		t.Fatal("bucket partition broken")
	}
	if s.PctCallsAtLB < 0 || s.PctCallsAtLB > 100 {
		t.Fatal("pct at lower bound out of range")
	}
	if !strings.Contains(s.String(), "paper") {
		t.Fatal("summary must cite the paper's reference values")
	}
}

func TestBuckets(t *testing.T) {
	r := CallRecord{COnsetPct: 3}
	if !SmallOnset.In(r) || MidOnset.In(r) || LargeOnset.In(r) || !AllCalls.In(r) {
		t.Fatal("bucket membership at 3%")
	}
	r.COnsetPct = 50
	if !MidOnset.In(r) || SmallOnset.In(r) || LargeOnset.In(r) {
		t.Fatal("bucket membership at 50%")
	}
	r.COnsetPct = 99
	if !LargeOnset.In(r) {
		t.Fatal("bucket membership at 99%")
	}
	for _, b := range []Bucket{AllCalls, SmallOnset, MidOnset, LargeOnset} {
		if b.String() == "invalid" {
			t.Fatal("bucket names")
		}
	}
}

func TestOrthogonality(t *testing.T) {
	records := []CallRecord{
		{MinSize: 1, Results: map[string]HeurResult{"a": {Size: 1}, "b": {Size: 2}}},
		{MinSize: 1, Results: map[string]HeurResult{"a": {Size: 3}, "b": {Size: 1}}},
		{MinSize: 1, Results: map[string]HeurResult{"a": {Size: 1}, "b": {Size: 1}}},
	}
	// a wins once, b wins once, one tie: orthogonality 66.7.
	got := Orthogonality(records, "a", "b")
	if got < 66 || got > 67 {
		t.Fatalf("orthogonality = %v", got)
	}
}

func TestRunBenchmarkRejectsUnknown(t *testing.T) {
	_, _, err := RunSuite([]string{"nope"}, RunConfig{}, 1)
	if err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestHeuristicRuntimesRecorded(t *testing.T) {
	col := suiteRecords(t)
	var total time.Duration
	for _, r := range col.Records {
		for _, res := range r.Results {
			total += res.Runtime
		}
	}
	if total <= 0 {
		t.Fatal("runtimes must accumulate")
	}
	_ = circuits.Names() // keep the import tied to the suite definition
}

func TestPerBenchmarkBreakdown(t *testing.T) {
	col := suiteRecords(t)
	rows := PerBenchmark(col.Records)
	if len(rows) != 3 {
		t.Fatalf("expected 3 benchmarks, got %d", len(rows))
	}
	totalCalls := 0
	for _, b := range rows {
		totalCalls += b.Calls
		if b.Small+b.Large > b.Calls {
			t.Fatalf("%s: bucket counts exceed calls", b.Name)
		}
		if b.FTotal < b.MinTotal || b.MinTotal < b.LBTotal {
			t.Fatalf("%s: totals out of order: f=%d min=%d lb=%d", b.Name, b.FTotal, b.MinTotal, b.LBTotal)
		}
		if b.Reduction < 1 {
			t.Fatalf("%s: reduction %v < 1", b.Name, b.Reduction)
		}
	}
	if totalCalls != len(col.Records) {
		t.Fatal("per-benchmark calls must partition the records")
	}
	text := RenderPerBenchmark(col.Records)
	for _, want := range []string{"tlc", "minmax5", "tbk", "reduction"} {
		if !strings.Contains(text, want) {
			t.Fatalf("breakdown missing %q", want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	col := suiteRecords(t)
	var sb strings.Builder
	if err := WriteCSV(&sb, col.Records, col.HeuristicNames()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(col.Records)+1 {
		t.Fatalf("csv has %d lines, want %d", len(lines), len(col.Records)+1)
	}
	if !strings.HasPrefix(lines[0], "benchmark,call,c_onset_pct") {
		t.Fatalf("header: %q", lines[0])
	}
	wantCols := 6 + 2*len(col.HeuristicNames())
	if got := len(strings.Split(lines[1], ",")); got != wantCols {
		t.Fatalf("columns: %d, want %d", got, wantCols)
	}
}

func TestSuiteRunsAreDeterministic(t *testing.T) {
	// Reproducibility guarantee for the artifact: two fresh runs of the
	// same benchmarks produce identical sizes, bounds and bucket values
	// (runtimes differ, of course).
	run := func() *Collector {
		col, _, err := RunSuite([]string{"tlc", "tbk"}, RunConfig{
			Collector: Config{LowerBoundCubes: 100},
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Benchmark != rb.Benchmark || ra.FOrigSize != rb.FOrigSize ||
			ra.MinSize != rb.MinSize || ra.LowerBound != rb.LowerBound ||
			ra.COnsetPct != rb.COnsetPct {
			t.Fatalf("record %d differs between runs", i)
		}
		for name, res := range ra.Results {
			if rb.Results[name].Size != res.Size {
				t.Fatalf("record %d heuristic %s size differs", i, name)
			}
		}
	}
}
