package problem

import (
	"os"
	"testing"
)

// KeyHash is the bddrouter's placement key: it must be equal for every
// spelling of one instance (it digests the canonical key) and stable
// across processes and releases, or a deploy reshuffles the whole fleet's
// cache locality. The pinned constants below guard the second property;
// update them only together with a deliberate placement-migration story.
func TestKeyHashStability(t *testing.T) {
	p1, err := FromSpec("d1 01 1d 01")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := FromSpec(" D1  01 (1d 01) ")
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := KeyHash(p1.CanonicalKey()), KeyHash(p2.CanonicalKey())
	if h1 != h2 {
		t.Fatalf("equal canonical instances hash differently: %#x vs %#x", h1, h2)
	}
	const pinned = uint64(0xacb4a29014e38a4)
	if h1 != pinned {
		t.Fatalf("KeyHash of the Figure 1 spec = %#x, pinned %#x — changing it migrates every deployed ring", h1, pinned)
	}
	p3, err := FromSpec("11 01 1d 01")
	if err != nil {
		t.Fatal(err)
	}
	if KeyHash(p3.CanonicalKey()) == h1 {
		t.Fatalf("distinct instances share a key hash (collision in a 2-instance test is a bug)")
	}

	// A BLIF request naming its node is placed on its text key.
	src, err := os.ReadFile("../../examples/corpus/majodc.blif")
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := Key(KindBLIF, string(src), 0, "t1")
	if err != nil {
		t.Fatal(err)
	}
	const pinnedBLIF = uint64(0xaf8856c74dde60aa)
	if got := KeyHash(key); got != pinnedBLIF {
		t.Fatalf("KeyHash of majodc.blif node t1 = %#x, pinned %#x — changing it migrates every deployed ring", got, pinnedBLIF)
	}
}
