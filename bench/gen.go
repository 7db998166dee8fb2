package main

import (
	"fmt"
	"math/rand"
	"strings"

	"bddmin/internal/circuits"
	"bddmin/internal/logic"
	"bddmin/internal/serve"
)

// The serving workloads send instances made here from the seed alone, in
// the proportions that reach the service in practice: half leaf-notation
// specs (dense and sparse care sets), 40% BLIF-node jobs over real
// netlists, 10% espresso PLA. No (node, heuristic) pair is sent twice, so
// on the cold workload every request misses the front-line cache.

// heuristicMix is the share, in percent, of each heuristic among requests.
var heuristicMix = []struct {
	name   string
	weight int
}{{"osm_bt", 70}, {"tsm_cp", 10}, {"restr", 10}, {"opt_lv", 10}}

// netlist is a BLIF source and its addressable internal node names.
type netlist struct {
	src   string
	nodes []string
}

type nodeRef struct{ net, node int }

// generator yields a deterministic request stream for one seed.
type generator struct {
	rng    *rand.Rand
	nets   []netlist
	unsent map[string][]nodeRef // per heuristic, in send order
}

// suiteNetlists renders the circuits.Suite machines as BLIF text for
// BLIF-node requests. scf is left out: building the observability don't
// cares of 7 of its nodes takes 140-170 ms each, some 60 times a typical
// request, so the few of them a run happens to draw would set p99 by
// chance rather than by the service's behaviour.
func suiteNetlists() ([]netlist, error) {
	var out []netlist
	for _, info := range circuits.Suite() {
		if info.Name == "scf" {
			continue
		}
		nl, err := newNetlist(info.Build())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", info.Name, err)
		}
		out = append(out, nl)
	}
	return out, nil
}

// newNetlist writes net as BLIF and lists the internal nodes a BLIF request
// can name, the way problem.ExpandLine enumerates them for @netblif.
func newNetlist(net *logic.Network) (netlist, error) {
	var sb strings.Builder
	if err := logic.WriteBLIF(&sb, net); err != nil {
		return netlist{}, err
	}
	parsed, err := logic.ParseBLIFString(sb.String())
	if err != nil {
		return netlist{}, err
	}
	nl := netlist{src: sb.String()}
	seen := map[string]bool{}
	for _, nd := range parsed.Nodes() {
		if nd.Type == logic.Input || nd.Type == logic.Const || nd.Name == "" || seen[nd.Name] {
			continue
		}
		seen[nd.Name] = true
		nl.nodes = append(nl.nodes, nd.Name)
	}
	return nl, nil
}

func newGenerator(seed int64, suite []netlist) *generator {
	g := &generator{
		rng:    rand.New(rand.NewSource(seed)),
		unsent: map[string][]nodeRef{},
	}
	for _, nl := range suite {
		g.addNetlist(nl)
	}
	return g
}

// addNetlist makes every node of nl available once per heuristic, in an
// order shuffled independently for each heuristic.
func (g *generator) addNetlist(nl netlist) {
	idx := len(g.nets)
	g.nets = append(g.nets, nl)
	for _, h := range heuristicMix {
		refs := make([]nodeRef, len(nl.nodes))
		for i := range refs {
			refs[i] = nodeRef{idx, i}
		}
		g.rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
		g.unsent[h.name] = append(g.unsent[h.name], refs...)
	}
}

// next returns the stream's next request.
func (g *generator) next() (serve.MinimizeRequest, error) {
	pick := g.rng.Intn(100)
	heur := heuristicMix[len(heuristicMix)-1].name
	for _, h := range heuristicMix {
		if pick < h.weight {
			heur = h.name
			break
		}
		pick -= h.weight
	}
	var req serve.MinimizeRequest
	switch kind := g.rng.Intn(10); {
	case kind < 5:
		req = serve.MinimizeRequest{Format: "spec", Input: g.spec()}
	case kind < 9:
		r, err := g.blif(heur)
		if err != nil {
			return req, err
		}
		req = r
	default:
		req = g.pla()
	}
	req.Heuristic = heur
	return req, nil
}

// spec draws a leaf-notation function of 8 to 13 variables whose leaves are
// don't cares with probability 0.9 or 0.1 (one or the other, evenly).
func (g *generator) spec() string {
	n := 8 + g.rng.Intn(6)
	pd := 0.1
	if g.rng.Intn(2) == 0 {
		pd = 0.9
	}
	b := make([]byte, 1<<n)
	for i := range b {
		switch {
		case g.rng.Float64() < pd:
			b[i] = 'd'
		case g.rng.Intn(2) == 0:
			b[i] = '0'
		default:
			b[i] = '1'
		}
	}
	return string(b)
}

// blif takes the next unsent node for heur. Once the suite's nodes are used
// up, a fresh seeded control FSM of suite-like shape extends the pool.
func (g *generator) blif(heur string) (serve.MinimizeRequest, error) {
	for len(g.unsent[heur]) == 0 {
		net := circuits.RandomControlFSM(fmt.Sprintf("gen%d", len(g.nets)), g.rng.Int63(),
			5+g.rng.Intn(6), 6+g.rng.Intn(13), 3+g.rng.Intn(6))
		nl, err := newNetlist(net)
		if err != nil {
			return serve.MinimizeRequest{}, err
		}
		g.addNetlist(nl)
	}
	ref := g.unsent[heur][0]
	g.unsent[heur] = g.unsent[heur][1:]
	nl := g.nets[ref.net]
	return serve.MinimizeRequest{Format: "blif", Input: nl.src, Node: nl.nodes[ref.node]}, nil
}

// pla draws an fd-type espresso cover of 6 to 10 inputs, 1 to 3 outputs
// and 4 to 16 rows, minimizing one of its outputs.
func (g *generator) pla() serve.MinimizeRequest {
	in, out, rows := 6+g.rng.Intn(5), 1+g.rng.Intn(3), 4+g.rng.Intn(13)
	var sb strings.Builder
	fmt.Fprintf(&sb, ".i %d\n.o %d\n.type fd\n.p %d\n", in, out, rows)
	for r := 0; r < rows; r++ {
		for i := 0; i < in; i++ {
			sb.WriteByte(g.choose("01-", 3, 3))
		}
		sb.WriteByte(' ')
		for o := 0; o < out; o++ {
			sb.WriteByte(g.choose("1-0", 5, 2))
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(".e\n")
	return serve.MinimizeRequest{Format: "pla", Input: sb.String(), Output: g.rng.Intn(out)}
}

// choose picks chars[0] with probability w0/10, chars[1] with w1/10 and
// chars[2] otherwise.
func (g *generator) choose(chars string, w0, w1 int) byte {
	x := g.rng.Intn(10)
	switch {
	case x < w0:
		return chars[0]
	case x < w0+w1:
		return chars[1]
	}
	return chars[2]
}

// arrivals draws Poisson arrival offsets, in seconds, at rate per second
// over the first span seconds.
func arrivals(seed int64, rate, span float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	for t := rng.ExpFloat64() / rate; t < span; t += rng.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}
