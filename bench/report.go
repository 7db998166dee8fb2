package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// report is the -o file: every run, grouped by workload, with per-metric
// medians and quartiles, and the machine facts a comparison depends on.
type report struct {
	Schema     string                     `json:"schema"`
	GoVersion  string                     `json:"go_version"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	LoadConns  int                        `json:"load_conns"`
	Seconds    float64                    `json:"seconds"`
	Seed       int64                      `json:"seed"`
	Count      int                        `json:"count"`
	Traced     bool                       `json:"traced"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Runs    []*result          `json:"runs"`
	Summary map[string]summary `json:"summary"`
	Layers  map[string]summary `json:"layer_summary,omitempty"`
}

// summary describes one metric over a workload's runs. Spread is the
// interquartile range as a share of the median.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"`
}

func summarize(runs []*result, pick func(*result) map[string]metric) map[string]summary {
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for name, m := range pick(r) {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]summary{}
	for name, xs := range values {
		q1, med, q3 := quartiles(xs)
		s := sorted(xs)
		out[name] = summary{Unit: units[name], Median: med, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], Spread: ratio(q3-q1, med)}
	}
	return out
}

func newReport(o *options, count int, runs map[string][]*result) *report {
	rep := &report{
		Schema: "bddmin-bench/1", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LoadConns: loadConns,
		Seconds: o.seconds, Seed: o.seed, Count: count, Traced: o.traced,
		Workloads: map[string]*workloadReport{},
	}
	for name, rs := range runs {
		wr := &workloadReport{Runs: rs, Summary: summarize(rs, func(r *result) map[string]metric { return r.Metrics })}
		if o.traced {
			wr.Layers = summarize(rs, func(r *result) map[string]metric { return r.Layers })
		}
		rep.Workloads[name] = wr
	}
	return rep
}

func (rep *report) write(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (rep *report) correct() bool {
	for _, wr := range rep.Workloads {
		for _, r := range wr.Runs {
			if !r.Correct {
				return false
			}
		}
	}
	return true
}

// line is the closing JSON line of a multi-run invocation: the medians,
// keyed <workload>/<metric>.
func (rep *report) line() contractLine {
	l := contractLine{Correct: rep.correct(), Metrics: map[string]metric{}}
	for name, wr := range rep.Workloads {
		for _, r := range wr.Runs {
			l.Attempted += r.Attempted
			l.Failed += r.Failed
		}
		for m, s := range wr.Summary {
			l.Metrics[name+"/"+m] = metric{s.Median, s.Unit}
		}
	}
	return l
}

func (rep *report) names() []string {
	var names []string
	for _, w := range workloads {
		if rep.Workloads[w.name] != nil {
			names = append(names, w.name)
		}
	}
	return names
}

func (rep *report) printSummary(w io.Writer) {
	for _, name := range rep.names() {
		wr := rep.Workloads[name]
		for _, d := range endToEnd {
			s := wr.Summary[d.name]
			fmt.Fprintf(w, "summary %s %s median %.6g q1 %.6g q3 %.6g spread %.2f%% %s (%d runs)\n",
				name, d.name, s.Median, s.Q1, s.Q3, 100*s.Spread, d.unit, len(wr.Runs))
		}
	}
}

// bound is an end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareReports prints each workload's end-to-end medians against the
// base report's and returns how many worsened by more than their bound.
func compareReports(w io.Writer, basePath, specPath string, rep *report) (int, error) {
	var base report
	if err := readJSON(basePath, &base); err != nil {
		return 0, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := readJSON(specPath, &spec); err != nil {
		return 0, err
	}
	flagged := 0
	for _, name := range rep.names() {
		bw := base.Workloads[name]
		if bw == nil {
			fmt.Fprintf(w, "compare %s: not in %s\n", name, basePath)
			continue
		}
		for _, b := range spec.EndToEnd {
			cur, old := rep.Workloads[name].Summary[b.Name], bw.Summary[b.Name]
			delta := ratio(cur.Median-old.Median, old.Median)
			worse := delta
			if b.Better == "higher" {
				worse = -delta
			}
			mark := ""
			if worse > b.Bound {
				mark = "  REGRESSION"
				flagged++
			}
			fmt.Fprintf(w, "compare %s %s base %.6g new %.6g delta %+.2f%% bound %.1f%%%s\n",
				name, b.Name, old.Median, cur.Median, 100*delta, 100*b.Bound, mark)
		}
	}
	return flagged, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
