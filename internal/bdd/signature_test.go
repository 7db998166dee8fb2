package bdd

import "testing"

// sig is one function's signature through AppendSignatures.
func sig(m *Manager, f Ref) uint64 { return m.AppendSignatures(nil, f)[0] }

func TestSignatureConstantsAndComplement(t *testing.T) {
	m := New(4)
	if got := sig(m, One); got != ^uint64(0) {
		t.Fatalf("sig(One) = %x", got)
	}
	if got := sig(m, Zero); got != 0 {
		t.Fatalf("sig(Zero) = %x", got)
	}
	f := m.Or(m.MkVar(0), m.And(m.MkVar(1), m.MkNotVar(3)))
	if sig(m, f.Not()) != ^sig(m, f) {
		t.Fatal("signature of a complement edge must be the complemented word")
	}
	if sig(m, m.MkVar(2)) != varSignature(2) {
		t.Fatal("signature of a literal must be its variable row")
	}
}

// Each bit-lane of a signature is an exact point evaluation: lane j of
// sig(f) equals Eval(f, assignment j) where variable v takes bit j of
// varSignature(v). This is the property that makes signature pruning
// sound.
func TestSignatureLanesAreEvaluations(t *testing.T) {
	const n = 9
	m := New(n)
	rng := newRand(91)
	for trial := 0; trial < 8; trial++ {
		f := randTT(rng, n).build(m)
		sf := sig(m, f)
		asn := make([]bool, n)
		for lane := 0; lane < 64; lane++ {
			for v := 0; v < n; v++ {
				asn[v] = varSignature(int32(v))&(1<<lane) != 0
			}
			want := m.Eval(f, asn)
			if got := sf&(1<<lane) != 0; got != want {
				t.Fatalf("trial %d lane %d: signature bit %v, Eval %v", trial, lane, got, want)
			}
		}
	}
}

// Point evaluation commutes with the Boolean connectives, so signatures
// form a homomorphism: sig(f·g) = sig(f) & sig(g), etc.
func TestSignatureHomomorphism(t *testing.T) {
	m := New(8)
	rng := newRand(92)
	for trial := 0; trial < 16; trial++ {
		f := randTT(rng, 8).build(m)
		g := randTT(rng, 8).build(m)
		sf, sg := sig(m, f), sig(m, g)
		if sig(m, m.And(f, g)) != sf&sg {
			t.Fatal("sig(f·g) != sig(f)&sig(g)")
		}
		if sig(m, m.Or(f, g)) != sf|sg {
			t.Fatal("sig(f+g) != sig(f)|sig(g)")
		}
		if sig(m, m.Xor(f, g)) != sf^sg {
			t.Fatal("sig(f⊕g) != sig(f)^sig(g)")
		}
	}
}

// Signatures are a pure function of the Boolean function: independent of
// the Manager instance, the construction history, and the batch layout.
func TestSignatureDeterministic(t *testing.T) {
	rng := newRand(93)
	table := randTT(rng, 8)
	m1, m2 := New(8), New(8)
	f1 := table.build(m1)
	junk := randTT(rng, 8).build(m2) // different arena layout
	f2 := table.build(m2)
	if sig(m1, f1) != sig(m2, f2) {
		t.Fatal("equal functions produced different signatures")
	}
	batch := m2.AppendSignatures(nil, f2, junk, f2.Not())
	if batch[0] != sig(m2, f2) || batch[2] != ^batch[0] {
		t.Fatalf("batch signatures disagree with single walks: %x", batch)
	}
}

// The prune predicates must pass whenever the kernels match: signatures
// are necessary-condition filters only.
func TestSignatureNeverRejectsTrueMatch(t *testing.T) {
	m := New(7)
	rng := newRand(94)
	fs := make([]Ref, 20)
	for i := range fs {
		fs[i] = randTT(rng, 7).build(m)
	}
	// Include biased care sets (mostly don't care) to make matches likely.
	for i := 0; i < 8; i++ {
		fs = append(fs, m.And(fs[i], fs[i+1]))
	}
	sigs := m.AppendSignatures(nil, fs...)
	checked, matched := 0, 0
	for i, f1 := range fs {
		for j, f2 := range fs {
			for k := 0; k < len(fs); k += 5 {
				c1, c2 := fs[k], fs[(k+7)%len(fs)]
				checked++
				if m.MatchOSM(f1, c1, f2, c2) {
					matched++
					if !SigMatchOSM(sigs[i], sig(m, c1), sigs[j], sig(m, c2)) {
						t.Fatalf("OSM signature filter rejected a true match (%d,%d,%d)", i, j, k)
					}
				}
				if m.MatchTSM(f1, c1, f2, c2) {
					matched++
					if !SigMatchTSM(sigs[i], sig(m, c1), sigs[j], sig(m, c2)) {
						t.Fatalf("TSM signature filter rejected a true match (%d,%d,%d)", i, j, k)
					}
				}
			}
		}
	}
	if matched == 0 {
		t.Fatalf("test exercised no true matches over %d queries; weaken the operands", checked)
	}
}
