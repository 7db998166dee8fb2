// Package circuits generates the sequential benchmark machines used by the
// experiment harness. The paper evaluated on the ISCAS'89 / MCNC circuits
// s344, s386, s510, s641, s820, s953, s1238, s1488, scf, styr, tbk,
// mult16b, cbp.32.4, minmax5 and tlc; those netlists are not shipped here,
// so this package provides deterministic generators that produce machines
// of the same species — random control FSMs sized after the originals
// (scaled where symbolic traversal would exceed a laptop budget; see the
// Scale fields), datapath circuits (serial multiplier, carry-bypass
// adder), and the canonical small machines (traffic-light controller,
// min/max tracker). What the experiment actually consumes is the stream of
// [frontier, frontier+unreached] minimization instances produced by
// product-machine reachability, which these machines generate in the same
// way the originals did.
package circuits

import (
	"fmt"
	"math/rand"

	"bddmin/internal/logic"
)

// Counter returns an n-bit binary up-counter with an enable input and a
// terminal-count output.
func Counter(n int) *logic.Network {
	b := logic.NewBuilder(fmt.Sprintf("counter%d", n))
	en := b.Input("en")
	qs := make([]*logic.Node, n)
	for i := range qs {
		qs[i] = b.Latch(fmt.Sprintf("q%d", i), false)
	}
	carry := en
	for i := 0; i < n; i++ {
		b.SetNext(qs[i], b.Xor(qs[i], carry))
		if i < n-1 {
			carry = b.And(carry, qs[i])
		}
	}
	tc := qs[0]
	for i := 1; i < n; i++ {
		tc = b.And(tc, qs[i])
	}
	b.Output("tc", tc)
	return b.MustBuild()
}

// LFSR returns an n-bit Fibonacci linear feedback shift register with taps
// given as bit positions, plus a serial output.
func LFSR(n int, taps []int) *logic.Network {
	b := logic.NewBuilder(fmt.Sprintf("lfsr%d", n))
	en := b.Input("en")
	qs := make([]*logic.Node, n)
	for i := range qs {
		qs[i] = b.Latch(fmt.Sprintf("r%d", i), i == 0) // nonzero seed
	}
	fb := qs[taps[0]]
	for _, tp := range taps[1:] {
		fb = b.Xor(fb, qs[tp])
	}
	b.SetNext(qs[0], b.Mux(en, fb, qs[0]))
	for i := 1; i < n; i++ {
		b.SetNext(qs[i], b.Mux(en, qs[i-1], qs[i]))
	}
	b.Output("so", qs[n-1])
	return b.MustBuild()
}

// TrafficLight returns the classic two-road traffic-light controller in
// the spirit of the MCNC "tlc" benchmark: a highway/farm-road light pair
// driven by a car sensor and a timer (short/long timeouts), 4 states
// one-hot-coded in 2 latches plus a 3-bit timer.
func TrafficLight() *logic.Network {
	b := logic.NewBuilder("tlc")
	car := b.Input("car") // car waiting on the farm road
	// State encoding: (s1 s0) = 00 HG highway green, 01 HY highway
	// yellow, 10 FG farm green, 11 FY farm yellow.
	s0 := b.Latch("s0", false)
	s1 := b.Latch("s1", false)
	// 3-bit timer, reset on state change.
	t0 := b.Latch("t0", false)
	t1 := b.Latch("t1", false)
	t2 := b.Latch("t2", false)
	longT := b.And(t2, t1, t0) // timer saturated = long timeout
	shortT := b.And(t1, t0)    // lower bits = short timeout

	hg := b.And(b.Not(s1), b.Not(s0))
	hy := b.And(b.Not(s1), s0)
	fg := b.And(s1, b.Not(s0))
	fy := b.And(s1, s0)

	advance := b.Or(
		b.And(hg, car, longT),              // leave highway-green when a car waits and long timeout passed
		b.And(hy, shortT),                  // yellow phases last shortT
		b.And(fg, b.Or(b.Not(car), longT)), // farm green ends when no car or timeout
		b.And(fy, shortT),
	)
	// Gray-coded state advance: HG->HY->FG->FY->HG.
	ns0 := b.Xor(s0, advance)
	ns1 := b.Xor(s1, b.And(advance, s0))
	b.SetNext(s0, ns0)
	b.SetNext(s1, ns1)
	// Timer: counts up, clears on advance.
	carry := b.Const(true)
	for _, tq := range []*logic.Node{t0, t1, t2} {
		b.SetNext(tq, b.And(b.Not(advance), b.Xor(tq, carry)))
		carry = b.And(carry, tq)
	}
	b.Output("hl_green", hg)
	b.Output("hl_yellow", hy)
	b.Output("fl_green", fg)
	b.Output("fl_yellow", fy)
	return b.MustBuild()
}

// MinMax returns a w-bit min/max tracker in the spirit of the MCNC
// "minmax" benchmark: it keeps the running minimum and maximum of the
// input stream and outputs the comparison of the current input against
// both. A clear input resets the extremes.
func MinMax(w int) *logic.Network {
	b := logic.NewBuilder(fmt.Sprintf("minmax%d", w))
	clear := b.Input("clr")
	din := make([]*logic.Node, w)
	for i := range din {
		din[i] = b.Input(fmt.Sprintf("d%d", i))
	}
	mins := make([]*logic.Node, w)
	maxs := make([]*logic.Node, w)
	for i := 0; i < w; i++ {
		mins[i] = b.Latch(fmt.Sprintf("min%d", i), true) // min starts at all-ones
	}
	for i := 0; i < w; i++ {
		maxs[i] = b.Latch(fmt.Sprintf("max%d", i), false)
	}
	// Comparators (MSB first): ltMin = din < min, gtMax = din > max.
	ltMin := b.Const(false)
	gtMax := b.Const(false)
	eqMin := b.Const(true)
	eqMax := b.Const(true)
	for i := w - 1; i >= 0; i-- {
		ltMin = b.Or(ltMin, b.And(eqMin, b.Not(din[i]), mins[i]))
		eqMin = b.And(eqMin, b.Xnor(din[i], mins[i]))
		gtMax = b.Or(gtMax, b.And(eqMax, din[i], b.Not(maxs[i])))
		eqMax = b.And(eqMax, b.Xnor(din[i], maxs[i]))
	}
	for i := 0; i < w; i++ {
		newMin := b.Mux(b.Or(clear, ltMin), b.Mux(clear, b.Const(true), din[i]), mins[i])
		newMax := b.Mux(b.Or(clear, gtMax), b.Mux(clear, b.Const(false), din[i]), maxs[i])
		b.SetNext(mins[i], newMin)
		b.SetNext(maxs[i], newMax)
	}
	b.Output("new_min", ltMin)
	b.Output("new_max", gtMax)
	return b.MustBuild()
}

// SerialMultiplier returns a w-bit shift-add serial multiplier in the
// spirit of "mult16b" (scaled): per step it conditionally adds the
// multiplicand (held in an input register loaded from primary inputs) into
// an accumulator and shifts.
func SerialMultiplier(w int) *logic.Network {
	b := logic.NewBuilder(fmt.Sprintf("mult%db", w))
	bit := b.Input("bit") // serial multiplier bit
	start := b.Input("start")
	mc := make([]*logic.Node, w)
	for i := range mc {
		mc[i] = b.Input(fmt.Sprintf("m%d", i)) // multiplicand (combinational input)
	}
	acc := make([]*logic.Node, w)
	for i := range acc {
		acc[i] = b.Latch(fmt.Sprintf("a%d", i), false)
	}
	// add = acc + (bit ? mc : 0), then shift right by one.
	carry := b.Const(false)
	sum := make([]*logic.Node, w)
	for i := 0; i < w; i++ {
		addend := b.And(bit, mc[i])
		sum[i] = b.Xor(acc[i], addend, carry)
		carry = b.Or(b.And(acc[i], addend), b.And(carry, b.Xor(acc[i], addend)))
	}
	for i := 0; i < w; i++ {
		var shifted *logic.Node
		if i == w-1 {
			shifted = carry
		} else {
			shifted = sum[i+1]
		}
		b.SetNext(acc[i], b.Mux(start, b.Const(false), shifted))
	}
	b.Output("p0", sum[0]) // serial product bit
	b.Output("ovf", carry)
	return b.MustBuild()
}

// CarryBypassAdder returns a registered carry-bypass adder in the spirit
// of "cbp.32.4" (scaled): width-bit operands from inputs, carry chain in
// blocks of blockSize with bypass muxes, registered sum.
func CarryBypassAdder(width, blockSize int) *logic.Network {
	b := logic.NewBuilder(fmt.Sprintf("cbp.%d.%d", width, blockSize))
	cin := b.Input("cin")
	xs := make([]*logic.Node, width)
	ys := make([]*logic.Node, width)
	for i := 0; i < width; i++ {
		xs[i] = b.Input(fmt.Sprintf("x%d", i))
		ys[i] = b.Input(fmt.Sprintf("y%d", i))
	}
	sums := make([]*logic.Node, width)
	carry := cin
	for blk := 0; blk < width; blk += blockSize {
		blockIn := carry
		allProp := b.Const(true)
		for i := blk; i < blk+blockSize && i < width; i++ {
			p := b.Xor(xs[i], ys[i])
			g := b.And(xs[i], ys[i])
			sums[i] = b.Xor(p, carry)
			carry = b.Or(g, b.And(p, carry))
			allProp = b.And(allProp, p)
		}
		// Bypass: if every position propagates, the block's carry-out is
		// its carry-in.
		carry = b.Mux(allProp, blockIn, carry)
	}
	for i := 0; i < width; i++ {
		q := b.Latch(fmt.Sprintf("s%d", i), false)
		b.SetNext(q, sums[i])
		b.Output(fmt.Sprintf("o%d", i), q)
	}
	cq := b.Latch("cout", false)
	b.SetNext(cq, carry)
	b.Output("co", cq)
	return b.MustBuild()
}

// RandomControlFSM generates a deterministic pseudo-random control-style
// machine shaped like the ISCAS'89 controllers it substitutes for: a small
// mode counter whose advance is gated by random input logic (this gives
// the traversal a realistic diameter, so the reached set grows over many
// BFS iterations), plus random-logic latches whose next-state functions
// are gate trees over inputs, state bits and the mode counter. The same
// (seed, latches, inputs) always yields the same network.
func RandomControlFSM(name string, seed int64, latches, inputs, outputs int) *logic.Network {
	rng := rand.New(rand.NewSource(seed))
	b := logic.NewBuilder(name)
	ins := make([]*logic.Node, inputs)
	for i := range ins {
		ins[i] = b.Input(fmt.Sprintf("i%d", i))
	}
	qs := make([]*logic.Node, latches)
	for i := range qs {
		qs[i] = b.Latch(fmt.Sprintf("q%d", i), rng.Intn(4) == 0)
	}
	pool := append(append([]*logic.Node{}, ins...), qs...)
	pick := func() *logic.Node {
		nd := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			return b.Not(nd)
		}
		return nd
	}
	var tree func(depth int) *logic.Node
	tree = func(depth int) *logic.Node {
		if depth <= 0 || rng.Intn(5) == 0 {
			return pick()
		}
		l, r := tree(depth-1), tree(depth-1)
		switch rng.Intn(5) {
		case 0:
			return b.And(l, r)
		case 1:
			return b.Or(l, r)
		case 2:
			return b.Xor(l, r)
		case 3:
			return b.Mux(pick(), l, r)
		default:
			return b.Nand(l, r)
		}
	}
	// Mode counter over the first few latches, advanced when a random
	// input condition holds.
	nCnt := latches / 3
	if nCnt < 2 {
		nCnt = 2
	}
	if nCnt > 5 {
		nCnt = 5
	}
	if nCnt > latches {
		nCnt = latches
	}
	advance := tree(2)
	carry := advance
	for i := 0; i < nCnt; i++ {
		b.SetNext(qs[i], b.Xor(qs[i], carry))
		if i < nCnt-1 {
			carry = b.And(carry, qs[i])
		}
	}
	for i := nCnt; i < latches; i++ {
		depth := 4 + rng.Intn(3)
		next := tree(depth)
		// Mix in the previous bit to create shift-like correlation, which
		// keeps reachable sets structured (as real controllers are).
		if rng.Intn(2) == 0 {
			next = b.Mux(ins[rng.Intn(inputs)], next, qs[i-1])
		}
		b.SetNext(qs[i], next)
	}
	for o := 0; o < outputs; o++ {
		b.Output(fmt.Sprintf("o%d", o), tree(2))
	}
	return b.MustBuild()
}
