package core

import (
	"testing"

	"bddmin/internal/bdd"
)

// FuzzAbortMinimize injects budget exhaustion at fuzz-chosen op counts into
// the combined Robust heuristic and the Scheduler and asserts the full
// anytime contract of the resource-governance layer:
//
//   - the result is always a valid cover of [f, c] (f·c ≤ g ≤ f+¬c),
//   - it is never larger than f (the Proposition 6 comparison safeguard),
//   - no protections leak and GC returns the arena to its baseline, and
//   - the manager remains usable for a follow-up minimization.
func FuzzAbortMinimize(f *testing.F) {
	f.Add(uint64(0xdeadbeefcafe1234), uint64(0x0f0f33335555aaaa), uint16(10), uint8(0))
	f.Add(uint64(0x123456789abcdef0), uint64(0xffff00000000ffff), uint16(1), uint8(1))
	f.Add(uint64(0xa5a5a5a55a5a5a5a), uint64(0x8000000000000001), uint16(200), uint8(0))
	f.Add(uint64(1), uint64(^uint64(0)), uint16(5000), uint8(1))
	f.Fuzz(func(t *testing.T, ttF, ttC uint64, failAfter uint16, pick uint8) {
		const n = 6 // 2^6 = 64 minterms: one word per truth table
		m := bdd.New(n)
		vs := make([]bdd.Var, n)
		fv := make([]bool, 1<<n)
		cv := make([]bool, 1<<n)
		for i := range vs {
			vs[i] = bdd.Var(i)
		}
		for i := range fv {
			fv[i] = ttF>>uint(i)&1 == 1
			cv[i] = ttC>>uint(i)&1 == 1
		}
		F := m.FromTruthTable(vs, fv)
		C := m.FromTruthTable(vs, cv)
		if C == bdd.Zero {
			C = bdd.One // heuristics reject an empty care set by contract
		}
		in := ISF{F: F, C: C}
		m.Protect(F)
		m.Protect(C)
		m.GC()
		baseline := m.NumNodes()
		rootsBefore := m.NumProtected()

		var h Minimizer
		if pick%2 == 0 {
			h = &Robust{OnsetThreshold: -1}
		} else {
			h = &Scheduler{WindowSize: 2}
		}
		b := &bdd.Budget{FailAfter: uint64(failAfter)%4096 + 1}
		g, info := MinimizeAnytime(h, m, F, C, b)

		if !in.Cover(m, g) {
			t.Fatalf("%s failAfter=%d: result is not a cover (aborted=%v phase=%q)",
				h.Name(), b.FailAfter, info.Aborted, info.Phase)
		}
		if m.Size(g) > m.Size(F) {
			t.Fatalf("%s failAfter=%d: result larger than f: %d > %d",
				h.Name(), b.FailAfter, m.Size(g), m.Size(F))
		}
		if m.Budget() != nil {
			t.Fatal("budget left attached")
		}
		if got := m.NumProtected(); got != rootsBefore {
			t.Fatalf("protection leak: %d roots, want %d", got, rootsBefore)
		}
		m.GC()
		if nn := m.NumNodes(); nn != baseline {
			t.Fatalf("arena not back to baseline after GC: %d != %d", nn, baseline)
		}
		// Follow-up minimization on the same manager must still work.
		g2 := Minimize(m, F, C)
		if !in.Cover(m, g2) {
			t.Fatal("follow-up minimization on the same manager produced a non-cover")
		}
	})
}
