package bdd

import (
	"math/rand"
	"testing"
)

// benchSetup builds a deterministic pool of functions over n variables.
func benchSetup(n, count int, seed int64) (*Manager, []Ref) {
	m := New(n)
	rng := rand.New(rand.NewSource(seed))
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = Var(i)
	}
	funcs := make([]Ref, count)
	for i := range funcs {
		vals := make([]bool, 1<<n)
		for j := range vals {
			vals[j] = rng.Intn(2) == 1
		}
		funcs[i] = m.FromTruthTable(vs, vals)
	}
	return m, funcs
}

func BenchmarkITE(b *testing.B) {
	m, fs := benchSetup(12, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			m.FlushCaches()
		}
		m.ITE(fs[i%64], fs[(i+7)%64], fs[(i+13)%64])
	}
}

func BenchmarkAnd(b *testing.B) {
	m, fs := benchSetup(12, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			m.FlushCaches()
		}
		m.And(fs[i%64], fs[(i+9)%64])
	}
}

func BenchmarkExists(b *testing.B) {
	m, fs := benchSetup(12, 64, 3)
	cube := m.CubeVars(1, 3, 5, 7, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			m.FlushCaches()
		}
		m.Exists(fs[i%64], cube)
	}
}

func BenchmarkAndExists(b *testing.B) {
	m, fs := benchSetup(12, 64, 4)
	cube := m.CubeVars(0, 2, 4, 6, 8, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			m.FlushCaches()
		}
		m.AndExists(fs[i%64], fs[(i+11)%64], cube)
	}
}

func BenchmarkConstrain(b *testing.B) {
	m, fs := benchSetup(12, 64, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := fs[(i+17)%64]
		if c == Zero {
			continue
		}
		if i%256 == 0 {
			m.FlushCaches()
		}
		m.Constrain(fs[i%64], c)
	}
}

func BenchmarkRestrict(b *testing.B) {
	m, fs := benchSetup(12, 64, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := fs[(i+17)%64]
		if c == Zero {
			continue
		}
		if i%256 == 0 {
			m.FlushCaches()
		}
		m.Restrict(fs[i%64], c)
	}
}

func BenchmarkSize(b *testing.B) {
	m, fs := benchSetup(14, 16, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Size(fs[i%16])
	}
}

func BenchmarkDensity(b *testing.B) {
	m, fs := benchSetup(14, 16, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Density(fs[i%16])
	}
}

func BenchmarkSupport(b *testing.B) {
	m, fs := benchSetup(14, 16, 7)
	var buf []Var
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.AppendSupport(buf[:0], fs[i%16])
	}
}

func BenchmarkSharedSize(b *testing.B) {
	m, fs := benchSetup(14, 16, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SharedSize(fs...)
	}
}

func BenchmarkMatchOSM(b *testing.B) {
	m, fs := benchSetup(12, 64, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			m.FlushCaches()
		}
		m.MatchOSM(fs[i%64], fs[(i+7)%64], fs[(i+13)%64], fs[(i+29)%64])
	}
}

func BenchmarkMatchTSM(b *testing.B) {
	m, fs := benchSetup(12, 64, 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			m.FlushCaches()
		}
		m.MatchTSM(fs[i%64], fs[(i+7)%64], fs[(i+13)%64], fs[(i+29)%64])
	}
}

func BenchmarkSignature(b *testing.B) {
	m, fs := benchSetup(14, 16, 23)
	var sigs []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigs = m.AppendSignatures(sigs[:0], fs[i%16])
	}
}

func BenchmarkMkNodeHashCons(b *testing.B) {
	// Rebuilding an existing function exercises pure unique-table hits.
	m, fs := benchSetup(10, 4, 9)
	tables := make([][]bool, 4)
	for i := range tables {
		tables[i] = m.TruthTable(fs[i], vars(10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FromTruthTable(vars(10), tables[i%4])
	}
}

func BenchmarkGC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, fs := benchSetup(12, 32, int64(i))
		m.Protect(fs[0])
		b.StartTimer()
		m.GC()
	}
}

func BenchmarkForEachCube(b *testing.B) {
	m, fs := benchSetup(12, 8, 11)
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		count += m.ForEachCube(fs[i%8], 1000, func([]CubeValue) bool { return true })
	}
	if count == 0 {
		b.Fatal("no cubes enumerated")
	}
}
