package network

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/circuits"
	"bddmin/internal/logic"
	"bddmin/internal/obs"
)

// correlatedNet is the netopt.blif network: p=ab implies q=a+b, so r=p+q
// has the satisfiability don't care (p=1,q=0) and collapses to a buffer of
// q, after which p is dead. The minimum is 3 internal nodes.
func correlatedNet(t *testing.T) *logic.Network {
	t.Helper()
	b := logic.NewBuilder("netopt")
	a := b.Input("a")
	bb := b.Input("b")
	c := b.Input("c")
	p := b.And(a, bb)
	q := b.Or(a, bb)
	r := b.Or(p, q)
	b.Output("y", b.And(r, c))
	return b.MustBuild()
}

// checkTrajectory asserts the per-sweep cost and node trajectories are
// monotonically non-increasing from the initial state.
func checkTrajectory(t *testing.T, res *Result) {
	t.Helper()
	cost, nodes := res.InitialCost, res.InitialNodes
	for i, s := range res.Sweeps {
		if s.Cost > cost || s.Nodes > nodes {
			t.Fatalf("sweep %d not monotone: cost %d->%d nodes %d->%d", i+1, cost, s.Cost, nodes, s.Nodes)
		}
		cost, nodes = s.Cost, s.Nodes
	}
	if res.FinalCost != cost || res.FinalNodes != nodes {
		t.Fatalf("final (%d,%d) disagrees with last sweep (%d,%d)", res.FinalCost, res.FinalNodes, cost, nodes)
	}
}

func TestOptimizeCorrelatedFanins(t *testing.T) {
	net := correlatedNet(t)
	var buf obs.Buffer
	res, err := Optimize(net, Options{Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MiterOK {
		t.Fatal("miter failed")
	}
	if res.InitialNodes != 4 {
		t.Fatalf("initial nodes = %d, want 4", res.InitialNodes)
	}
	if res.FinalNodes != 3 {
		t.Fatalf("final nodes = %d, want 3 (r collapses to a buffer of q, p dies)", res.FinalNodes)
	}
	if res.Rewrites == 0 || !res.Converged {
		t.Fatalf("rewrites=%d converged=%v, want rewrites and a fixpoint", res.Rewrites, res.Converged)
	}
	if res.LeakedProtected != 0 {
		t.Fatalf("leaked %d protected window nodes", res.LeakedProtected)
	}
	if res.NodesMade == 0 {
		t.Fatal("window-manager allocation accounting reports zero nodes made")
	}
	checkTrajectory(t, res)

	// The trace must contain node, sweep and miter phases, and survive the
	// JSONL round trip (schema check is in obs; here: emission happens).
	var phases []string
	for _, ev := range buf.Events {
		if ne, ok := ev.(obs.NetworkEvent); ok {
			phases = append(phases, ne.Phase)
		}
	}
	joined := strings.Join(phases, ",")
	for _, want := range []string{"node", "sweep", "miter"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace lacks %q events: %s", want, joined)
		}
	}

	// The optimized network still computes y = (a|b)&c.
	m := bdd.New(3)
	env := logic.Env{}
	vars := make([]bdd.Ref, 3)
	for i, in := range net.Inputs {
		vars[i] = m.MkVar(bdd.Var(i))
		env[in] = vars[i]
	}
	got := logic.EvalBDD(m, net.Outputs[0], env, map[*logic.Node]bdd.Ref{})
	want := m.And(m.Or(vars[0], vars[1]), vars[2])
	if got != want {
		t.Fatal("optimized output is not (a|b)&c")
	}
}

// TestOptimizeExamplesCorpus runs the optimizer over every BLIF in
// examples/corpus with default options: outputs must be proven unchanged
// and the trajectory monotone on all of them, reduction or not.
func TestOptimizeExamplesCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "corpus", "*.blif"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus BLIFs found: %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			net, err := logic.ParseBLIF(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Optimize(net, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.MiterOK {
				t.Fatal("miter failed")
			}
			if res.FinalNodes > res.InitialNodes {
				t.Fatalf("node count grew: %d -> %d", res.InitialNodes, res.FinalNodes)
			}
			if res.LeakedProtected != 0 {
				t.Fatalf("leaked %d protected window nodes", res.LeakedProtected)
			}
			checkTrajectory(t, res)
		})
	}
}

// TestOptimizeLatchNetwork exercises the sequential boundary: latch outputs
// are free variables, latch inputs are observables, and the miter compares
// next-state functions.
func TestOptimizeLatchNetwork(t *testing.T) {
	b := logic.NewBuilder("seq")
	x := b.Input("x")
	en := b.Input("en")
	q := b.Latch("q", false)
	// Redundant next-state: (x&en) | (x&en&q) == x&en.
	nxt := b.Or(b.And(x, en), b.And(x, en, q))
	b.SetNext(q, nxt)
	b.Output("y", b.Xor(q, x))
	net := b.MustBuild()

	res, err := Optimize(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MiterOK {
		t.Fatal("miter failed")
	}
	if res.FinalNodes > res.InitialNodes {
		t.Fatalf("node count grew: %d -> %d", res.InitialNodes, res.FinalNodes)
	}
	checkTrajectory(t, res)
}

// TestOptimizeBudgetAborts injects a deterministic fault into every
// per-node budget scope: every window aborts, no rewrite lands, the loop
// still terminates and the network is untouched and equivalent.
func TestOptimizeBudgetAborts(t *testing.T) {
	net := correlatedNet(t)
	res, err := Optimize(net, Options{FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MiterOK {
		t.Fatal("miter failed")
	}
	if res.Aborts == 0 {
		t.Fatal("FailAfter=1 must trip per-node budgets")
	}
	if res.Rewrites != 0 {
		t.Fatalf("rewrites=%d with the CDC phase always aborting", res.Rewrites)
	}
	if res.FinalNodes != res.InitialNodes || res.FinalCost != res.InitialCost {
		t.Fatal("aborted run must leave the network unchanged")
	}
	if !res.Converged {
		t.Fatal("an all-abort sweep has zero rewrites and must converge")
	}
	checkTrajectory(t, res)
}

// TestOptimizeNodeBudgetDegrades sets a tiny but non-zero allocation budget:
// some windows may degrade or skip, but the result must stay equivalent and
// monotone — the "injected per-node budget aborts" acceptance clause.
func TestOptimizeNodeBudgetDegrades(t *testing.T) {
	for _, budget := range []uint64{1, 4, 16, 64} {
		net := correlatedNet(t)
		res, err := Optimize(net, Options{NodeBudget: budget})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !res.MiterOK {
			t.Fatalf("budget %d: miter failed", budget)
		}
		if res.FinalNodes > res.InitialNodes {
			t.Fatalf("budget %d: node count grew", budget)
		}
		checkTrajectory(t, res)
	}
}

// TestOptimizeCanceledContext: a pre-canceled context stops the run at the
// first node boundary; the network is untouched and the miter still runs.
func TestOptimizeCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net := correlatedNet(t)
	res, err := Optimize(net, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MiterOK {
		t.Fatal("miter failed")
	}
	if res.Rewrites != 0 || res.FinalNodes != res.InitialNodes {
		t.Fatal("canceled run must not rewrite anything")
	}
}

func TestMiterDetectsDifference(t *testing.T) {
	a := correlatedNet(t)
	b := correlatedNet(t)
	// Corrupt b: turn the output's AND cover into an OR cover.
	b.Outputs[0].Cover = []string{"1-", "-1"}
	if err := miter(bdd.New(0), a, b); err == nil {
		t.Fatal("miter must detect a changed output function")
	} else if !strings.Contains(err.Error(), "output") {
		t.Fatalf("miter error should name the differing observable: %v", err)
	}
}

func TestCostLocal(t *testing.T) {
	net := correlatedNet(t)
	// p,q,r,y are all 2-input gates: AND=3, OR=3, OR=3, AND=3.
	if got := Cost(net); got != 12 {
		t.Fatalf("Cost = %d, want 12", got)
	}
}

// suiteNet builds a machine of the experiment suite.
func suiteNet(t *testing.T, name string) *logic.Network {
	t.Helper()
	info, err := circuits.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return info.Build()
}

// TestOptimizeSuitePinned pins Optimize's results on five suite machines:
// node counts, rewrites, the NodesMade work measure and a digest of the
// written netlist. Reusing BDD managers across windows must reproduce the
// fresh-manager run exactly, so none of these may move. styr and scf have
// the suite's widest fanin vectors, where the care set's cost shows; s641
// has the most internal nodes (272), where cutting a window costs most.
// NodesMade counts the nodes each window makes (osm_bt keeps only the
// function part of generic_td's i-cover, so it builds no care node) and
// the nodes each compile of a local function makes.
func TestOptimizeSuitePinned(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		initial, final, rewrites int
		nodesMade                uint64
		blifSHA256               string
	}{
		{"tlc", 32, 31, 3, 2515, "09e4b82df066985a1c7f96f58f7477ca76413907a4b79bc2cce970b8004ace96"},
		{"s386", 99, 90, 15, 4734, "104eadf33ceb22874301c301fd9398b71394e6fc5742187e7de55b3819c5116b"},
		{"styr", 16, 16, 4, 109020, "8873c3d1fca1c112131bbd15dc2ab3a86dc115f781eeb5df965892c4027fc655"},
		{"scf", 19, 18, 6, 369551, "0e7ff45f3e21cc521e5bed35d28c0e385ca718de3c514c4f2337490a1ebcf6fa"},
		{"s641", 272, 257, 17, 20382, "41d9155d5084364e272bbc456c2491a985aa30eec384e932e4783271190b4a67"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := suiteNet(t, tc.name)
			res, err := Optimize(net, Options{})
			if err != nil || !res.MiterOK {
				t.Fatalf("miter ok %v, err %v", res.MiterOK, err)
			}
			if res.InitialNodes != tc.initial || res.FinalNodes != tc.final || res.Rewrites != tc.rewrites || res.NodesMade != tc.nodesMade {
				t.Fatalf("nodes %d->%d, %d rewrites, %d nodes made; want %d->%d, %d, %d",
					res.InitialNodes, res.FinalNodes, res.Rewrites, res.NodesMade,
					tc.initial, tc.final, tc.rewrites, tc.nodesMade)
			}
			var sb strings.Builder
			if err := logic.WriteBLIF(&sb, net); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(sb.String()))
			if got := hex.EncodeToString(sum[:]); got != tc.blifSHA256 {
				t.Fatalf("written BLIF sha256 %s, want %s", got, tc.blifSHA256)
			}
		})
	}
}

// TestOptimizeAllocationBound guards the per-run cost: a fresh BDD manager
// (and its computed cache) per window allocates about 121 MiB on tlc, a
// window and a compile manager per run with caches sized for windows about
// 0.3 MiB, and one manager with bdd.New's cache about 2 MiB.
func TestOptimizeAllocationBound(t *testing.T) {
	net := suiteNet(t, "tlc")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Optimize(net, Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Optimize(tlc) allocated %.2f MiB, want under 1 MiB", float64(got)/(1<<20))
	}
}
