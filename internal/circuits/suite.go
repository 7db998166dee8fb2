package circuits

import "fmt"

// BenchmarkInfo describes one entry of the experiment suite: the paper's
// benchmark name, the shape of the original circuit, the shape actually
// generated (scaled where traversal cost demands it), and the generator.
type BenchmarkInfo struct {
	Name string
	// OrigInputs and OrigLatches document the original circuit from the
	// ISCAS'89 / MCNC suites, for the substitution record.
	OrigInputs  int
	OrigLatches int
	// Inputs and Latches are the generated machine's shape.
	Inputs  int
	Latches int
	// Kind is "control", "datapath", or "canonical".
	Kind string
	// Build generates the machine.
	Build func() *network
}

// Suite returns the benchmark table mirroring the paper's list: s344,
// s386, s510, s641, s820, s953, s1238, s1488, scf, styr, tbk, mult16b,
// cbp.32.4, minmax5, tlc. Control circuits are generated as seeded random
// FSMs with the original input/latch counts, each capped at 14
// (maxControlLatches, maxControlInputs: the product machine doubles state
// variables and the traversal must stay laptop-sized); datapath circuits
// are generated structurally at reduced width. Every substitution is visible by comparing the Orig* and actual
// fields.
func Suite() []BenchmarkInfo {
	entries := []BenchmarkInfo{
		ctl("s344", 9, 15, 101),
		ctl("s386", 7, 6, 102),
		ctl("s510", 19, 6, 103),
		ctl("s641", 35, 19, 104),
		ctl("s820", 18, 5, 105),
		ctl("s953", 16, 29, 106),
		ctl("s1238", 14, 18, 107),
		ctl("s1488", 8, 6, 108),
		// The three MCNC FSM benchmarks are distributed as KISS2 state
		// transition graphs; they are generated as random STGs and pushed
		// through the same KISS2 → synthesis pipeline (state counts
		// scaled: scf originally has 121 states / 27 inputs).
		{
			Name: "scf", OrigInputs: 27, OrigLatches: 7,
			Inputs: 10, Latches: 6, Kind: "stg",
			Build: func() *network { return RandomSTG("scf", 109, 64, 10, 6) },
		},
		{
			Name: "styr", OrigInputs: 9, OrigLatches: 5,
			Inputs: 9, Latches: 5, Kind: "stg",
			Build: func() *network { return RandomSTG("styr", 110, 30, 9, 5) },
		},
		{
			Name: "tbk", OrigInputs: 6, OrigLatches: 5,
			Inputs: 6, Latches: 5, Kind: "stg",
			Build: func() *network { return RandomSTG("tbk", 111, 32, 6, 3) },
		},
		{
			Name: "mult16b", OrigInputs: 18, OrigLatches: 16,
			Inputs: 10, Latches: 8, Kind: "datapath",
			Build: func() *network { return SerialMultiplier(8) },
		},
		{
			Name: "cbp.32.4", OrigInputs: 65, OrigLatches: 33,
			Inputs: 17, Latches: 9, Kind: "datapath",
			Build: func() *network { return CarryBypassAdder(8, 4) },
		},
		{
			Name: "minmax5", OrigInputs: 6, OrigLatches: 10,
			Inputs: 6, Latches: 10, Kind: "canonical",
			Build: func() *network { return MinMax(5) },
		},
		{
			Name: "tlc", OrigInputs: 1, OrigLatches: 5,
			Inputs: 1, Latches: 5, Kind: "canonical",
			Build: func() *network { return TrafficLight() },
		},
	}
	return entries
}

// maxControlLatches caps the state bits of generated control FSMs so the
// product machine traversal stays tractable.
const maxControlLatches = 14

// maxControlInputs caps primary inputs (every image computation
// eliminates them).
const maxControlInputs = 14

func ctl(name string, origInputs, origLatches int, seed int64) BenchmarkInfo {
	inputs := origInputs
	if inputs > maxControlInputs {
		inputs = maxControlInputs
	}
	latches := origLatches
	if latches > maxControlLatches {
		latches = maxControlLatches
	}
	outputs := 1 + latches/3
	return BenchmarkInfo{
		Name: name, OrigInputs: origInputs, OrigLatches: origLatches,
		Inputs: inputs, Latches: latches, Kind: "control",
		Build: func() *network {
			return RandomControlFSM(name, seed, latches, inputs, outputs)
		},
	}
}

// ByName returns the suite entry with the given name.
func ByName(name string) (BenchmarkInfo, error) {
	for _, e := range Suite() {
		if e.Name == name {
			return e, nil
		}
	}
	return BenchmarkInfo{}, fmt.Errorf("circuits: unknown benchmark %q", name)
}

// Names lists the suite names in the paper's order.
func Names() []string {
	var out []string
	for _, e := range Suite() {
		out = append(out, e.Name)
	}
	return out
}
