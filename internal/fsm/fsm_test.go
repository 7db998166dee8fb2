package fsm

import (
	"testing"

	"bddmin/internal/bdd"
	"bddmin/internal/circuits"
	"bddmin/internal/core"
	"bddmin/internal/logic"
)

func toggleNet(t *testing.T, brokenOutput bool) *logic.Network {
	t.Helper()
	b := logic.NewBuilder("toggle")
	in := b.Input("in")
	q := b.Latch("q", false)
	b.SetNext(q, b.Xor(in, q))
	out := b.Xnor(in, q)
	if brokenOutput {
		out = b.Xor(in, q)
	}
	b.Output("out", out)
	return b.MustBuild()
}

func TestSelfEquivalenceToggle(t *testing.T) {
	m := bdd.New(0)
	p, err := NewProduct(m, toggleNet(t, false), toggleNet(t, false))
	if err != nil {
		t.Fatal(err)
	}
	res := p.CheckEquivalence(Options{})
	if !res.Equal || res.Aborted {
		t.Fatalf("self-equivalence failed: %v", res)
	}
	// The two copies stay in lockstep: exactly 2 diagonal states.
	if res.ReachedStates != 2 {
		t.Fatalf("reached %v states, want 2", res.ReachedStates)
	}
}

func TestInequivalenceDetected(t *testing.T) {
	m := bdd.New(0)
	p, err := NewProduct(m, toggleNet(t, false), toggleNet(t, true))
	if err != nil {
		t.Fatal(err)
	}
	res := p.CheckEquivalence(Options{})
	if res.Equal {
		t.Fatal("differing machines reported equal")
	}
}

// TestMiscompareAtReset compares two combinational machines, x·y against
// x+y: the one reset state already miscompares, so the traversal stops
// before its first image with that state reached.
func TestMiscompareAtReset(t *testing.T) {
	gate := func(or bool) *logic.Network {
		b := logic.NewBuilder("gate")
		x, y := b.Input("x"), b.Input("y")
		out := b.And(x, y)
		if or {
			out = b.Or(x, y)
		}
		b.Output("o", out)
		return b.MustBuild()
	}
	p, err := NewProduct(bdd.New(0), gate(false), gate(true))
	if err != nil {
		t.Fatal(err)
	}
	res := p.CheckEquivalence(Options{})
	want := "DIFFERENT after 0 iterations, 1 states reached, peak frontier 0 nodes, 0 minimize calls"
	if got := res.String(); got != want {
		t.Fatalf("CheckEquivalence: %q, want %q", got, want)
	}
	ce, res := p.FindCounterexample(Options{})
	if ce == nil || res.ReachedStates != 1 {
		t.Fatalf("FindCounterexample: trace %v, %v states reached; want a trace and 1 state", ce, res.ReachedStates)
	}
}

// enabledCounter is a bits-wide counter that counts while its input en
// is 1, with a terminal-count output. The broken copy also requires en = 0
// for the terminal count, so the two differ only in the all-ones state.
func enabledCounter(bits int, broken bool) *logic.Network {
	b := logic.NewBuilder("cnt")
	en := b.Input("en")
	qs := make([]*logic.Node, bits)
	for i := range qs {
		qs[i] = b.Latch("q"+string(rune('0'+i)), false)
	}
	carry := en
	for _, q := range qs {
		b.SetNext(q, b.Xor(q, carry))
		carry = b.And(carry, q)
	}
	tc := b.And(qs...)
	if broken {
		tc = b.And(append(qs, b.Not(en))...)
	}
	b.Output("tc", tc)
	return b.MustBuild()
}

func TestInequivalenceDeepInStateSpace(t *testing.T) {
	// Two counters that diverge only at the terminal count: detected
	// after several iterations, not at the start.
	m := bdd.New(0)
	p, err := NewProduct(m, enabledCounter(3, false), enabledCounter(3, true))
	if err != nil {
		t.Fatal(err)
	}
	res := p.CheckEquivalence(Options{})
	if res.Equal {
		t.Fatal("divergence at terminal count missed")
	}
	if res.Iterations < 3 {
		t.Fatalf("divergence found suspiciously early (iteration %d)", res.Iterations)
	}
}

func TestUnreachableDifferenceIgnored(t *testing.T) {
	// Machines differing only in an unreachable state are equivalent.
	build := func(differ bool) *logic.Network {
		b := logic.NewBuilder("u")
		in := b.Input("in")
		q0 := b.Latch("q0", false)
		q1 := b.Latch("q1", false)
		// q1 never leaves 0: next is q1 AND q0 AND ... still 0 from init.
		b.SetNext(q0, b.Xor(in, q0))
		b.SetNext(q1, b.And(q1, q0))
		out := b.Xor(in, q0)
		if differ {
			// Difference gated on the unreachable q1=1.
			out = b.Xor(in, q0, q1)
		}
		b.Output("o", out)
		return b.MustBuild()
	}
	m := bdd.New(0)
	p, err := NewProduct(m, build(false), build(true))
	if err != nil {
		t.Fatal(err)
	}
	res := p.CheckEquivalence(Options{})
	if !res.Equal {
		t.Fatal("unreachable difference must not break equivalence")
	}
}

// explicitProductReach enumerates the product reachable set explicitly via
// gate-level simulation; the oracle for the symbolic traversal.
func explicitProductReach(a, b *logic.Network) map[string]bool {
	type state struct{ s string }
	encode := func(sa, sb []bool) string {
		buf := make([]byte, len(sa)+len(sb))
		for i, v := range sa {
			if v {
				buf[i] = '1'
			} else {
				buf[i] = '0'
			}
		}
		for i, v := range sb {
			if v {
				buf[len(sa)+i] = '1'
			} else {
				buf[len(sa)+i] = '0'
			}
		}
		return string(buf)
	}
	ni := a.PrimaryInputCount()
	start := [2][]bool{logic.InitialState(a), logic.InitialState(b)}
	seen := map[string]bool{encode(start[0], start[1]): true}
	queue := [][2][]bool{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for k := 0; k < 1<<ni; k++ {
			in := make([]bool, ni)
			for i := range in {
				in[i] = k&(1<<i) != 0
			}
			na, _ := logic.StepState(a, cur[0], in)
			nb, _ := logic.StepState(b, cur[1], in)
			key := encode(na, nb)
			if !seen[key] {
				seen[key] = true
				queue = append(queue, [2][]bool{na, nb})
			}
		}
	}
	_ = state{}
	return seen
}

func TestSymbolicReachMatchesExplicit(t *testing.T) {
	nets := []*logic.Network{
		toggleNet(t, false),
		circuits.Counter(3),
		circuits.TrafficLight(),
		circuits.LFSR(4, []int{3, 2}),
		circuits.RandomControlFSM("r1", 11, 4, 3, 2),
		circuits.RandomControlFSM("r2", 12, 5, 2, 1),
	}
	for _, net := range nets {
		m := bdd.New(0)
		p, err := NewProduct(m, net, net)
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		res := p.CheckEquivalence(Options{})
		if !res.Equal {
			t.Fatalf("%s: self-equivalence failed", net.Name)
		}
		want := len(explicitProductReach(net, net))
		if int(res.ReachedStates) != want {
			t.Fatalf("%s: symbolic reached %v states, explicit %d", net.Name, res.ReachedStates, want)
		}
	}
}

// TestSuiteReachPinned pins the traversal of every suite machine that
// takes well under a second (all but s641, s953 and s1238): the verdict,
// the BFS depth and the number of reached product states.
func TestSuiteReachPinned(t *testing.T) {
	want := []struct {
		name       string
		iterations int
		states     float64
	}{
		{"s344", 5, 1043},
		{"s386", 3, 7},
		{"s510", 5, 64},
		{"s820", 6, 32},
		{"s1488", 5, 64},
		{"scf", 14, 50},
		{"styr", 8, 29},
		{"tbk", 10, 28},
		{"mult16b", 9, 255},
		{"cbp.32.4", 2, 512},
		{"minmax5", 3, 529},
		{"tlc", 20, 24},
	}
	for _, w := range want {
		info, err := circuits.ByName(w.name)
		if err != nil {
			t.Fatal(err)
		}
		net := info.Build()
		p, err := NewProduct(bdd.New(0), net, net)
		if err != nil {
			t.Fatal(err)
		}
		res := p.CheckEquivalence(Options{})
		if !res.Equal || res.Aborted || res.Iterations != w.iterations || res.ReachedStates != w.states {
			t.Errorf("%s: %v; want EQUIVALENT after %d iterations, %.0f states reached",
				w.name, res, w.iterations, w.states)
		}
	}
}

func TestMinimizeHookReceivesValidInstances(t *testing.T) {
	m := bdd.New(0)
	net := circuits.Counter(4)
	p, err := NewProduct(m, net, net)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	res := p.CheckEquivalence(Options{
		Minimize: func(mm *bdd.Manager, f, c bdd.Ref) bdd.Ref {
			calls++
			if c == bdd.Zero {
				t.Fatal("empty care set delivered to hook")
			}
			// The returned cover must contain f·c; use a different
			// heuristic than the default to prove the hook is in charge.
			g := mm.Restrict(f, c)
			if !mm.Cover(g, f, c) {
				t.Fatal("restrict result not a cover")
			}
			return g
		},
	})
	if !res.Equal {
		t.Fatal("self-equivalence with restrict hook failed")
	}
	if calls == 0 || res.MinimizeCalls != calls {
		t.Fatalf("hook called %d, recorded %d", calls, res.MinimizeCalls)
	}
}

func TestDifferentHooksSameVerdict(t *testing.T) {
	for _, broken := range []bool{false, true} {
		var verdicts []bool
		for _, h := range []core.Minimizer{core.Constrain(), core.Restrict(), core.NewSiblingHeuristic(core.OSM, true, true)} {
			m := bdd.New(0)
			p, err := NewProduct(m, circuits.TrafficLight(), trafficMutant(broken))
			if err != nil {
				t.Fatal(err)
			}
			res := p.CheckEquivalence(Options{
				Minimize: func(mm *bdd.Manager, f, c bdd.Ref) bdd.Ref {
					return h.Minimize(mm, f, c)
				},
			})
			verdicts = append(verdicts, res.Equal)
		}
		for _, v := range verdicts {
			if v != verdicts[0] {
				t.Fatal("verdict must be independent of the minimization heuristic")
			}
			if v == broken {
				t.Fatalf("wrong verdict for broken=%v", broken)
			}
		}
	}
}

func trafficMutant(broken bool) *logic.Network {
	if !broken {
		return circuits.TrafficLight()
	}
	// Rebuild with an inverted car sensor — observably different.
	b := logic.NewBuilder("tlc_mut")
	car := b.Input("car")
	s0 := b.Latch("s0", false)
	s1 := b.Latch("s1", false)
	t0 := b.Latch("t0", false)
	t1 := b.Latch("t1", false)
	t2 := b.Latch("t2", false)
	_ = t2
	b.SetNext(s0, b.Xor(s0, car))
	b.SetNext(s1, b.And(s1, s0))
	b.SetNext(t0, t1)
	b.SetNext(t1, t0)
	b.SetNext(t2, t2)
	b.Output("hl_green", b.And(b.Not(s1), b.Not(s0)))
	b.Output("hl_yellow", b.And(b.Not(s1), s0))
	b.Output("fl_green", b.And(s1, b.Not(s0)))
	b.Output("fl_yellow", b.And(s1, s0))
	return b.MustBuild()
}

func TestMaxIterationsAborts(t *testing.T) {
	m := bdd.New(0)
	net := circuits.Counter(6)
	p, err := NewProduct(m, net, net)
	if err != nil {
		t.Fatal(err)
	}
	res := p.CheckEquivalence(Options{MaxIterations: 3})
	if !res.Aborted || res.Iterations != 3 {
		t.Fatalf("abort expected after 3 iterations: %+v", res)
	}
}

func TestGCDuringTraversal(t *testing.T) {
	m := bdd.New(0)
	net := circuits.Counter(5)
	p, err := NewProduct(m, net, net)
	if err != nil {
		t.Fatal(err)
	}
	res := p.CheckEquivalence(Options{GCEvery: 2})
	if !res.Equal {
		t.Fatal("GC during traversal broke the check")
	}
	if m.GCRuns() == 0 {
		t.Fatal("expected at least one GC run")
	}
	if int(res.ReachedStates) != 32 {
		t.Fatalf("reached %v, want 32", res.ReachedStates)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Equal: true, Iterations: 5, ReachedStates: 32, PeakFrontierSize: 7, MinimizeCalls: 4}
	s := r.String()
	if s == "" || r.String() != s {
		t.Fatal("String must be deterministic and nonempty")
	}
	r.Equal = false
	r.Aborted = true
	if r.String() == s {
		t.Fatal("verdict must appear in the string")
	}
}

// transitionRelation is the product's monolithic transition relation
// ∏ᵢ (yᵢ ≡ δᵢ(w, x)) over both machines' latches.
func transitionRelation(p *Product) bdd.Ref {
	m := p.M
	T := bdd.One
	for _, mc := range []*Machine{p.A, p.B} {
		for i, d := range mc.Next {
			T = m.And(T, m.Xnor(m.MkVar(mc.NextVars[i]), d))
		}
	}
	return T
}

// relationImage is the image of S by its definition: ∃w,x [S(x) ·
// ∏ᵢ (yᵢ ≡ δᵢ(w, x))], with each next-state variable yᵢ then renamed to
// its present-state variable xᵢ by Compose.
func relationImage(p *Product, S bdd.Ref) bdd.Ref {
	m := p.M
	wx := append([]bdd.Var{}, p.A.InputVars...)
	wx = append(append(wx, p.A.StateVars...), p.B.StateVars...)
	img := m.AndExists(S, transitionRelation(p), m.CubeVars(wx...))
	for _, mc := range []*Machine{p.A, p.B} {
		for i, y := range mc.NextVars {
			img = m.Compose(img, y, m.MkVar(mc.StateVars[i]))
		}
	}
	return img
}

func TestImageMethodsAgree(t *testing.T) {
	// At every BFS step, the range of the constrained next-state vector
	// must equal the image computed from the transition relation. The last
	// pair has different next-state functions, so its product leaves the
	// diagonal.
	pairs := [][2]*logic.Network{
		{circuits.Counter(4), circuits.Counter(4)},
		{circuits.TrafficLight(), circuits.TrafficLight()},
		{circuits.RandomControlFSM("ia", 21, 5, 3, 2), circuits.RandomControlFSM("ia", 21, 5, 3, 2)},
		{circuits.MinMax(3), circuits.MinMax(3)},
		{circuits.RandomControlFSM("a", 30, 5, 3, 2), circuits.RandomControlFSM("b", 130, 5, 3, 2)},
	}
	for _, pair := range pairs {
		name := pair[0].Name + "/" + pair[1].Name
		m := bdd.New(0)
		p, err := NewProduct(m, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		reached, frontier := p.initial, p.initial
		steps := 0
		for frontier != bdd.Zero {
			steps++
			img := p.ImageFV(frontier, nil)
			if want := relationImage(p, frontier); img != want {
				t.Fatalf("%s: step %d: ImageFV differs from the relational image", name, steps)
			}
			frontier = m.AndNot(img, reached)
			reached = m.Or(reached, img)
		}
		res := p.CheckEquivalence(Options{})
		if res.Equal && (res.Iterations != steps || res.Reached != reached) {
			t.Fatalf("%s: CheckEquivalence took %d steps to a different reached set; BFS took %d", name, res.Iterations, steps)
		}
	}
}

func TestImageFVObserverSeesSparseCareSets(t *testing.T) {
	m := bdd.New(0)
	net := circuits.Counter(5)
	p, err := NewProduct(m, net, net)
	if err != nil {
		t.Fatal(err)
	}
	instances := 0
	res := p.CheckEquivalence(Options{
		OnConstrain: func(mm *bdd.Manager, f, c bdd.Ref) {
			instances++
			if c == bdd.Zero {
				t.Fatal("observer must never see an empty care set")
			}
		},
	})
	if !res.Equal {
		t.Fatal("self equivalence")
	}
	// 10 next-state functions per iteration (minus all-One frontiers).
	if instances < 10 {
		t.Fatalf("observer saw %d instances", instances)
	}
}

func TestProductAccessors(t *testing.T) {
	m := bdd.New(0)
	net := circuits.Counter(3)
	p, err := NewProduct(m, net, net)
	if err != nil {
		t.Fatal(err)
	}
	if p.initial == bdd.Zero || !m.IsCube(p.initial) {
		t.Fatal("initial state must be a nonempty cube")
	}
	// Bad states exist off the diagonal (copy A ahead of copy B), but
	// never at the synchronized reset.
	if !p.agrees(p.initial) {
		t.Fatal("reset state must not miscompare in a self-product")
	}
	if p.agrees(bdd.One) {
		t.Fatal("states off the diagonal must miscompare")
	}
}

// orChainBad is the miscompare predicate by its definition: the output
// XORs ORed one after another, then the inputs quantified from the sum.
func orChainBad(p *Product) bdd.Ref {
	m := p.M
	diff := bdd.Zero
	for i := range p.A.Outputs {
		diff = m.Or(diff, m.Xor(p.A.Outputs[i], p.B.Outputs[i]))
	}
	return m.Exists(diff, m.CubeVars(p.A.InputVars...))
}

// TestAgreesMatchesOrChain checks the traversal's miscompare test against
// the predicate it replaces: on every ring of a traversal, and on the set
// of all states, agrees holds exactly when the ring is disjoint from
// orChainBad. It runs every suite self-product and mutant pairs that
// miscompare at reset, after one step and after 15, and bounds the nodes
// NewProduct makes on scf, so an eagerly built predicate fails it.
// s641, s953 and s1238 stop after two steps: their whole traversals take
// 1–3 s each, and several times that under the race detector.
func TestAgreesMatchesOrChain(t *testing.T) {
	check := func(label string, a, b *logic.Network, opts Options) (equal bool, made uint64) {
		t.Helper()
		m := bdd.New(0)
		p, err := NewProduct(m, a, b)
		if err != nil {
			t.Fatal(err)
		}
		made = m.NodesMade()
		rings := []bdd.Ref{m.Protect(p.initial)}
		res := p.traverse(opts, &rings)
		bad := orChainBad(p)
		for i, ring := range append(rings, bdd.One) {
			if got, want := p.agrees(ring), m.Disjoint(ring, bad); got != want {
				t.Fatalf("%s: ring %d of %d: agrees %v, disjoint from the OR chain %v", label, i, len(rings), got, want)
			}
		}
		return res.Equal, made
	}
	for _, name := range circuits.Names() {
		info, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		net := info.Build()
		opts := Options{GCEvery: 1}
		if name == "s641" || name == "s953" || name == "s1238" {
			opts.MaxIterations = 2
		}
		if equal, made := check(name, net, net, opts); !equal {
			t.Fatalf("%s: self-product miscompares", name)
		} else if name == "scf" && made > 250000 {
			// scf has the suite's widest Table nodes. Compiling both
			// copies makes 181,433 nodes; the eager miscompare predicate
			// made 386,081 more.
			t.Errorf("NewProduct(scf, scf) made %d nodes, want at most 250000", made)
		}
	}
	pairs := [][2]*logic.Network{
		{circuits.RandomControlFSM("a", 30, 5, 3, 2), circuits.RandomControlFSM("b", 130, 5, 3, 2)},
		{circuits.RandomControlFSM("a", 52, 5, 3, 2), circuits.RandomControlFSM("b", 152, 5, 3, 2)},
		{enabledCounter(4, false), enabledCounter(4, true)},
		{circuits.TrafficLight(), trafficMutant(true)},
	}
	for _, pair := range pairs {
		label := pair[0].Name + "/" + pair[1].Name
		if equal, _ := check(label, pair[0], pair[1], Options{GCEvery: 1}); equal {
			t.Fatalf("%s: mutant pair reported equal, so no ring miscompared", label)
		}
	}
}

func TestNewProductRejectsMismatches(t *testing.T) {
	m := bdd.New(0)
	if _, err := NewProduct(m, circuits.Counter(3), circuits.TrafficLight()); err == nil {
		t.Fatal("output count mismatch must be rejected")
	}
	if _, err := NewProduct(m, circuits.Counter(3), circuits.MinMax(3)); err == nil {
		t.Fatal("input count mismatch must be rejected")
	}
}

func TestCombinationalEquivalence(t *testing.T) {
	// Zero-latch networks: the product traversal degenerates to a single
	// image step and the check becomes combinational equivalence.
	build := func(demorgan bool) *logic.Network {
		b := logic.NewBuilder("comb")
		x := b.Input("x")
		y := b.Input("y")
		var f *logic.Node
		if demorgan {
			f = b.Not(b.Or(b.Not(x), b.Not(y)))
		} else {
			f = b.And(x, y)
		}
		b.Output("f", f)
		return b.MustBuild()
	}
	m := bdd.New(0)
	p, err := NewProduct(m, build(false), build(true))
	if err != nil {
		t.Fatal(err)
	}
	res := p.CheckEquivalence(Options{})
	if !res.Equal {
		t.Fatal("De Morgan forms must be equivalent")
	}
	// And a combinational miscompare.
	bad := logic.NewBuilder("bad")
	x := bad.Input("x")
	y := bad.Input("y")
	bad.Output("f", bad.Or(x, y))
	m2 := bdd.New(0)
	p2, err := NewProduct(m2, build(false), bad.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	ce, res2 := p2.FindCounterexample(Options{})
	if res2.Equal || ce == nil || ce.Length() != 1 {
		t.Fatalf("combinational difference must give a 1-step counterexample, got %v / %v", ce, res2)
	}
}
