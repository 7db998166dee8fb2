package bdd

import "testing"

// The stamped traversals, the ITE/constrain/GC paths and the match kernels
// hold at 0 allocs/op: the claim cmd/benchdump's micro loops record in
// BENCH_kernel.json. Each case replays one of those loops on the same pool.
func TestKernelsDoNotAllocate(t *testing.T) {
	cases := []struct {
		name string
		loop func() func()
	}{
		{"support", func() func() {
			m, fs := benchSetup(14, 16, 7)
			var buf []Var
			i := 0
			return func() {
				buf = m.AppendSupport(buf[:0], fs[i%16])
				i++
			}
		}},
		{"size", func() func() {
			m, fs := benchSetup(14, 16, 7)
			i := 0
			return func() {
				m.Size(fs[i%16])
				i++
			}
		}},
		{"density", func() func() {
			m, fs := benchSetup(14, 16, 8)
			i := 0
			return func() {
				m.Density(fs[i%16])
				i++
			}
		}},
		{"shared_size", func() func() {
			m, fs := benchSetup(14, 16, 9)
			return func() { m.SharedSize(fs...) }
		}},
		{"ite", func() func() {
			m, fs := benchSetup(12, 64, 1)
			i := 0
			return func() {
				if i%1024 == 0 {
					m.FlushCaches()
				}
				m.ITE(fs[i%64], fs[(i+7)%64], fs[(i+13)%64])
				i++
			}
		}},
		{"constrain", func() func() {
			m, fs := benchSetup(12, 64, 5)
			i := 0
			return func() {
				if c := fs[(i+17)%64]; c != Zero {
					if i%256 == 0 {
						m.FlushCaches()
					}
					m.Constrain(fs[i%64], c)
				}
				i++
			}
		}},
		{"gc", func() func() {
			m, fs := benchSetup(12, 32, 11)
			for _, f := range fs {
				m.Protect(f)
			}
			i := 0
			return func() {
				_ = m.Xor(fs[i%32], fs[(i+5)%32])
				m.GC()
				i++
			}
		}},
		{"osm_match", func() func() {
			m, fs := benchSetup(12, 64, 21)
			i := 0
			return func() {
				if i%1024 == 0 {
					m.FlushCaches()
				}
				m.MatchOSM(fs[i%64], fs[(i+7)%64], fs[(i+13)%64], fs[(i+29)%64])
				i++
			}
		}},
		{"tsm_match", func() func() {
			m, fs := benchSetup(12, 64, 22)
			i := 0
			return func() {
				if i%1024 == 0 {
					m.FlushCaches()
				}
				m.MatchTSM(fs[i%64], fs[(i+7)%64], fs[(i+13)%64], fs[(i+29)%64])
				i++
			}
		}},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(200, tc.loop()); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
}
