package bdd

import "testing"

// The loops BENCH_kernel.json publishes live in internal/kernelbench;
// these are the kernel benchmarks it does not publish.

func BenchmarkAnd(b *testing.B) {
	m, fs := randPool(12, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			m.FlushCaches()
		}
		m.And(fs[i%64], fs[(i+9)%64])
	}
}

func BenchmarkExists(b *testing.B) {
	m, fs := randPool(12, 64, 3)
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
	m, fs := randPool(12, 64, 4)
	cube := m.CubeVars(0, 2, 4, 6, 8, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			m.FlushCaches()
		}
		m.AndExists(fs[i%64], fs[(i+11)%64], cube)
	}
}

func BenchmarkRestrict(b *testing.B) {
	m, fs := randPool(12, 64, 6)
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

func BenchmarkSignature(b *testing.B) {
	m, fs := randPool(14, 16, 23)
	var sigs []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigs = m.AppendSignatures(sigs[:0], fs[i%16])
	}
}

func BenchmarkMkNodeHashCons(b *testing.B) {
	// Rebuilding an existing function exercises pure unique-table hits.
	m, fs := randPool(10, 4, 9)
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
		m, fs := randPool(12, 32, int64(i))
		m.Protect(fs[0])
		b.StartTimer()
		m.GC()
	}
}

func BenchmarkForEachCube(b *testing.B) {
	m, fs := randPool(12, 8, 11)
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		count += m.ForEachCube(fs[i%8], 1000, func([]CubeValue) bool { return true })
	}
	if count == 0 {
		b.Fatal("no cubes enumerated")
	}
}
