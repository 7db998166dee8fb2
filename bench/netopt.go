package main

import (
	"fmt"
	"strings"
	"time"

	"bddmin/internal/circuits"
	"bddmin/internal/logic"
	"bddmin/internal/network"
)

// netopt runs the whole-network don't-care optimizer the way bddmin
// -network does on each machine: parse the BLIF, optimize with the default
// options, write the result back out. An operation is one machine.
//
// scf is left out: it alone takes 6 s, two thirds of a 15-machine pass, so
// it would set every time this workload reports, and a run would fit two
// passes at most.
func netoptMachines() []string {
	var names []string
	for _, name := range circuits.Names() {
		if name != "scf" {
			names = append(names, name)
		}
	}
	return names
}

type netoptRunner struct {
	names []string
	srcs  []string
}

func setupNetopt(o *options) (runner, error) {
	r := &netoptRunner{names: o.netMachines}
	if r.names == nil {
		r.names = netoptMachines()
	}
	var err error
	if r.srcs, err = blifSources(r.names); err != nil {
		return nil, err
	}
	warm, err := blifSources(warmMachines)
	if err != nil {
		return nil, err
	}
	for _, src := range warm {
		if _, _, err := optimize(src, nil, 0); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// blifSources writes the named suite machines as BLIF.
func blifSources(names []string) ([]string, error) {
	var srcs []string
	for _, name := range names {
		info, err := circuits.ByName(name)
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := logic.WriteBLIF(&sb, info.Build()); err != nil {
			return nil, fmt.Errorf("netopt: %s: %w", name, err)
		}
		srcs = append(srcs, sb.String())
	}
	return srcs, nil
}

func (r *netoptRunner) close() {}

func (r *netoptRunner) measure(o *options, pr *prober, tr *tracer) (*measurement, error) {
	m := &measurement{info: map[string]any{}}
	var first []*network.Result
	var b batch
	for start := time.Now(); b.more(start, o.seconds); {
		ptr := b.tracer(tr)
		stop := m.gc.track()
		latMs := make([]float64, len(r.srcs))
		outs := make([]string, len(r.srcs))
		results := make([]*network.Result, len(r.srcs))
		var seconds float64
		for i, src := range r.srcs {
			t0 := time.Now()
			res, out, err := optimize(src, ptr, i+1)
			d := time.Since(t0).Seconds()
			pr.probe()
			seconds += d
			latMs[i] = d * 1000
			m.attempted++
			if err != nil || !res.MiterOK {
				m.failed++
				m.errs = append(m.errs, fmt.Sprintf("%s: %v, miter ok %v", r.names[i], err, res != nil && res.MiterOK))
			}
			outs[i], results[i] = out, res
		}
		stop()
		m.done += len(r.srcs)
		b.add(latMs, seconds, pr.take(), ptr != nil)
		if first == nil {
			first = results
		}
		// Outside the timed pass: the written netlist must parse again and
		// cost what the optimizer reported, and the pass must repeat the
		// first one's result.
		for i, out := range outs {
			if results[i] == nil || first[i] == nil {
				continue // already counted as failed
			}
			back, err := logic.ParseBLIFString(out)
			cost := -1
			if err == nil {
				cost = network.Cost(back)
			}
			switch {
			case err != nil:
				m.errs = append(m.errs, fmt.Sprintf("%s: written BLIF does not parse: %v", r.names[i], err))
			case cost != results[i].FinalCost:
				m.errs = append(m.errs, fmt.Sprintf("%s: written BLIF costs %d, optimizer reported %d", r.names[i], cost, results[i].FinalCost))
			case results[i].FinalNodes != first[i].FinalNodes:
				m.errs = append(m.errs, fmt.Sprintf("%s: %d final nodes, first pass %d", r.names[i], results[i].FinalNodes, first[i].FinalNodes))
			default:
				continue
			}
			m.failed++
		}
	}
	b.fill(m)
	m.layers = map[string]float64{}
	for _, res := range first {
		if res == nil {
			continue
		}
		m.resultSize += float64(res.FinalNodes)
		m.inputSize += float64(res.InitialNodes)
		m.layers["network.rewrites"] += float64(res.Rewrites)
		m.layers["network.aborts"] += float64(res.Aborts)
		m.layers["network.sweeps"] += float64(len(res.Sweeps))
		m.layers["bdd.nodes_made"] += float64(res.NodesMade)
		for _, sw := range res.Sweeps {
			m.layers["network.skipped"] += float64(sw.Skipped)
		}
	}
	m.info["final_nodes"] = m.resultSize
	if tr != nil {
		spans := tr.snapshot()
		self := selfTimes(spans)
		work := float64(rootTime(spans))
		for _, name := range []string{"logic.parse", "network.optimize", "logic.write"} {
			m.layers[name+"_share"] = float64(self[name]) / work
		}
		m.spans = spans
	}
	return m, nil
}

// optimize is one operation: parse src, optimize it, write it back out.
func optimize(src string, tr *tracer, req int) (*network.Result, string, error) {
	if tr != nil {
		tr.enter("bench.machine", req)
		defer tr.exit()
		tr.enter("logic.parse", 0)
	}
	net, err := logic.ParseBLIFString(src)
	if tr != nil {
		tr.exit()
	}
	if err != nil {
		return nil, "", err
	}
	if tr != nil {
		tr.enter("network.optimize", 0)
	}
	res, err := network.Optimize(net, network.Options{})
	if tr != nil {
		tr.exit()
	}
	if err != nil {
		return res, "", err
	}
	if tr != nil {
		tr.enter("logic.write", 0)
		defer tr.exit()
	}
	var sb strings.Builder
	err = logic.WriteBLIF(&sb, net)
	return res, sb.String(), err
}
