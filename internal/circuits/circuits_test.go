package circuits

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"bddmin/internal/logic"
)

func TestCounterCounts(t *testing.T) {
	net := Counter(4)
	state := logic.InitialState(net)
	for step := 1; step <= 20; step++ {
		var out []bool
		state, out = logic.StepState(net, state, []bool{true})
		got := 0
		for i := 3; i >= 0; i-- {
			got = got * 2
			if state[i] {
				got++
			}
		}
		if got != step%16 {
			t.Fatalf("step %d: counter=%d", step, got)
		}
		// Outputs are sampled from the pre-step state.
		if out[0] != ((step-1)%16 == 15) {
			t.Fatalf("step %d: tc=%v", step, out[0])
		}
	}
	// Disabled: holds.
	prev := append([]bool(nil), state...)
	state, _ = logic.StepState(net, state, []bool{false})
	for i := range state {
		if state[i] != prev[i] {
			t.Fatal("disabled counter must hold")
		}
	}
}

func TestLFSRPeriod(t *testing.T) {
	// x^4 + x^3 + 1 is maximal: period 15 over nonzero states.
	net := LFSR(4, []int{3, 2})
	state := logic.InitialState(net)
	start := append([]bool(nil), state...)
	seen := map[string]bool{}
	key := func(s []bool) string {
		b := make([]byte, len(s))
		for i, v := range s {
			if v {
				b[i] = '1'
			} else {
				b[i] = '0'
			}
		}
		return string(b)
	}
	period := 0
	for step := 1; step <= 20; step++ {
		state, _ = logic.StepState(net, state, []bool{true})
		if seen[key(state)] {
			break
		}
		seen[key(state)] = true
		period++
		if key(state) == key(start) {
			break
		}
	}
	if period != 15 {
		t.Fatalf("LFSR period = %d, want 15", period)
	}
}

func TestTrafficLightSafety(t *testing.T) {
	// Simulate many steps with adversarial car input: the two greens are
	// never on together, and the controller keeps cycling.
	net := TrafficLight()
	state := logic.InitialState(net)
	sawFarmGreen := false
	for step := 0; step < 200; step++ {
		car := step%3 != 0
		var out []bool
		state, out = logic.StepState(net, state, []bool{car})
		hg, fg := out[0], out[2]
		if hg && fg {
			t.Fatalf("step %d: both greens active", step)
		}
		if fg {
			sawFarmGreen = true
		}
	}
	if !sawFarmGreen {
		t.Fatal("farm road never served")
	}
}

func TestMinMaxTracksExtremes(t *testing.T) {
	net := MinMax(4)
	state := logic.InitialState(net)
	toBits := func(v int) []bool {
		in := []bool{false, false, false, false, false} // clr + 4 data
		for i := 0; i < 4; i++ {
			in[1+i] = v&(1<<i) != 0
		}
		return in
	}
	stream := []int{9, 3, 12, 7, 3, 15, 0}
	minV, maxV := 15, 0
	for _, v := range stream {
		state, _ = logic.StepState(net, state, toBits(v))
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		gotMin, gotMax := 0, 0
		for i := 0; i < 4; i++ {
			if state[i] { // min latches first
				gotMin |= 1 << i
			}
			if state[4+i] {
				gotMax |= 1 << i
			}
		}
		if gotMin != minV || gotMax != maxV {
			t.Fatalf("after %d: min=%d/%d max=%d/%d", v, gotMin, minV, gotMax, maxV)
		}
	}
	// Clear resets.
	in := toBits(0)
	in[0] = true
	state, _ = logic.StepState(net, state, in)
	for i := 0; i < 4; i++ {
		if !state[i] || state[4+i] {
			t.Fatal("clear must reset extremes")
		}
	}
}

func TestCarryBypassAdderAdds(t *testing.T) {
	net := CarryBypassAdder(8, 4)
	for _, tc := range []struct{ x, y, cin int }{
		{0, 0, 0}, {1, 1, 0}, {255, 1, 0}, {170, 85, 1}, {200, 100, 0}, {15, 240, 1},
	} {
		in := make([]bool, 1+16)
		in[0] = tc.cin == 1
		for i := 0; i < 8; i++ {
			in[1+2*i] = tc.x&(1<<i) != 0   // x then y interleaved by declaration order
			in[1+2*i+1] = tc.y&(1<<i) != 0 // (inputs declared x0,y0,x1,y1,...)
		}
		state, _ := logic.StepState(net, logic.InitialState(net), in)
		got := 0
		for i := 0; i < 8; i++ {
			if state[i] {
				got |= 1 << i
			}
		}
		cout := state[8]
		want := tc.x + tc.y + tc.cin
		if got != want&255 || cout != (want > 255) {
			t.Fatalf("%d+%d+%d: got %d cout %v", tc.x, tc.y, tc.cin, got, cout)
		}
	}
}

func TestSerialMultiplierStep(t *testing.T) {
	// One multiply of 4-bit values via the serial protocol: feed the
	// multiplier bits LSB-first and collect serial product bits.
	net := SerialMultiplier(4)
	a, b := 11, 13
	state := logic.InitialState(net)
	// start pulse clears the accumulator.
	in := make([]bool, 2+4)
	in[1] = true
	state, _ = logic.StepState(net, state, in)
	product := 0
	for step := 0; step < 8; step++ {
		in := make([]bool, 2+4)
		if step < 4 {
			in[0] = b&(1<<step) != 0
		}
		for i := 0; i < 4; i++ {
			in[2+i] = a&(1<<i) != 0
		}
		var out []bool
		state, out = logic.StepState(net, state, in)
		if out[0] {
			product |= 1 << step
		}
	}
	if product != a*b {
		t.Fatalf("serial product = %d, want %d", product, a*b)
	}
}

func TestRandomControlFSMDeterministic(t *testing.T) {
	a := RandomControlFSM("x", 7, 5, 4, 2)
	b := RandomControlFSM("x", 7, 5, 4, 2)
	if a.NodeCount() != b.NodeCount() {
		t.Fatal("same seed must give same structure")
	}
	sa, sb := logic.InitialState(a), logic.InitialState(b)
	for step := 0; step < 50; step++ {
		in := []bool{step%2 == 0, step%3 == 0, step%5 == 0, step%7 == 0}
		var oa, ob []bool
		sa, oa = logic.StepState(a, sa, in)
		sb, ob = logic.StepState(b, sb, in)
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatal("same seed must give same behavior")
			}
		}
	}
	c := RandomControlFSM("y", 8, 5, 4, 2)
	if c.NodeCount() == a.NodeCount() {
		t.Log("different seeds produced equal node counts (possible but unusual)")
	}
}

// suiteBLIFSHA256 holds the sha256 of logic.WriteBLIF's output for each
// suite machine. The Builder's gates are the tables WriteBLIF prints, so a
// change to a gate's cover, a generator or the writer moves a digest.
var suiteBLIFSHA256 = map[string]string{
	"s344":     "52e631dcd09dab57ce951154c510857665a45729c3567c856bb700ede5a0925d",
	"s386":     "d68afeac64ab9550fe3b8e145b14831b00d18562937467d9e7fe34b1384f5006",
	"s510":     "698b9518019a6a55f00684cd685ba3ada3529a1796631a79de7f301a9f541c85",
	"s641":     "3c87c02d40e58a84e95dc462d12be9c36460eeeb398d788d11e98d3b7c199870",
	"s820":     "75d40667c034dcb035b980323b2cf0d9c9eb4e2df10061d602ccfc386e024550",
	"s953":     "467da651d2ce4c64c3ebf101c6f335040a02aa13e5b04f076b77920768144dbc",
	"s1238":    "2a7d99c96d253b609c4af887a0d3e019dd6e216d8e58b1ff6750e6585f02a832",
	"s1488":    "4926420dc9d68481471baf98b9e0de12e3594f65b5ba6b69329bb403b3223f3f",
	"scf":      "afdf267a1e99f1b58f5112593e92ccaff6dec2208d51d24cf72c09ff1bf24def",
	"styr":     "24408c6e0c0a3a800966a78a8eb99a865453af92c5226e622c1e2d5c673b8b10",
	"tbk":      "ba07506438a36cc7fe814b1cb41dbbcaec3415bf921aa5bf3e766998d73453a4",
	"mult16b":  "5aa1fd97dcd4ae560322aac0b0b85e43627fbdafef94e6dd5febedd6742c64cb",
	"cbp.32.4": "c02dccb75984914f31d85c3e868b12099a191a57f081a346e3a4db44021d7e4e",
	"minmax5":  "cbacb62695f5a9945a81cfc2b21ae1f67dbbe3975a5a15b573018faf9341e3d0",
	"tlc":      "f1de11d819eaf959fdf1fa45560c2f59748952ff5f0704a96a77efbc869f4669",
}

func TestSuiteBuildsAndMatchesShapes(t *testing.T) {
	if len(Suite()) != 15 {
		t.Fatalf("suite has %d entries, want 15 (the paper's list)", len(Suite()))
	}
	for _, e := range Suite() {
		net := e.Build()
		if err := net.Validate(); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		var sb strings.Builder
		if err := logic.WriteBLIF(&sb, net); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		sum := sha256.Sum256([]byte(sb.String()))
		if got := hex.EncodeToString(sum[:]); got != suiteBLIFSHA256[e.Name] {
			t.Errorf("%s: written BLIF sha256 %s, want %s", e.Name, got, suiteBLIFSHA256[e.Name])
		}
		if net.PrimaryInputCount() != e.Inputs {
			t.Fatalf("%s: inputs %d, declared %d", e.Name, net.PrimaryInputCount(), e.Inputs)
		}
		if net.LatchCount() != e.Latches {
			t.Fatalf("%s: latches %d, declared %d", e.Name, net.LatchCount(), e.Latches)
		}
		if e.Latches > e.OrigLatches || e.Inputs > e.OrigInputs {
			t.Fatalf("%s: generated machine larger than original", e.Name)
		}
		if net.OutputCount() == 0 {
			t.Fatalf("%s: no outputs", e.Name)
		}
	}
}

func TestByName(t *testing.T) {
	e, err := ByName("tlc")
	if err != nil || e.Name != "tlc" {
		t.Fatal("ByName(tlc)")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
	if len(Names()) != 15 {
		t.Fatal("name list")
	}
}

func TestRandomSTGDeterministicAndAlive(t *testing.T) {
	a := RandomSTG("x", 9, 12, 4, 2)
	b := RandomSTG("x", 9, 12, 4, 2)
	if a.NodeCount() != b.NodeCount() {
		t.Fatal("same seed must give same structure")
	}
	// The machine must actually move through several states.
	state := logic.InitialState(a)
	seen := map[string]bool{}
	key := func(s []bool) string {
		buf := make([]byte, len(s))
		for i, v := range s {
			if v {
				buf[i] = '1'
			} else {
				buf[i] = '0'
			}
		}
		return string(buf)
	}
	seen[key(state)] = true
	for step := 0; step < 200; step++ {
		in := make([]bool, a.PrimaryInputCount())
		for i := range in {
			in[i] = (step>>uint(i))&1 == 1
		}
		state, _ = logic.StepState(a, state, in)
		seen[key(state)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("STG machine visits only %d states", len(seen))
	}
}
