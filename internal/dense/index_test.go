package dense

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestIndexOracle checks Set / Clear / Get / Range / Clone against a map,
// with keys clustered in a few chunks so chunks empty out and are reused.
// Now and then the run continues on a clone, and the index it was cloned
// from must keep its keys however the clone changes.
func TestIndexOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	var x Index
	ref := map[int64]int32{}
	for step := 0; step < 50000; step++ {
		k := int64(rng.IntN(4))*3*ChunkSize + int64(rng.IntN(8))
		switch op := rng.IntN(100); {
		case op < 50:
			v := 1 + rng.Int32N(100)
			x.Set(k, v)
			ref[k] = v
		case op < 98:
			x.Clear(k)
			delete(ref, k)
		default:
			prev, want := x, maps.Clone(ref)
			x = prev.Clone()
			x.Set(k, 1+rng.Int32N(100))
			x.Clear(k)
			for pk, pv := range want {
				if got := prev.Get(pk); got != pv {
					t.Fatalf("step %d: the cloned index's Get(%d) = %d after its clone changed, want %d", step, pk, got, pv)
				}
			}
			delete(ref, k)
		}
		if got := x.Get(k); got != ref[k] {
			t.Fatalf("step %d: Get(%d) = %d, want %d", step, k, got, ref[k])
		}
		if x.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, x.Len(), len(ref))
		}
	}
	var keys []int64
	x.Range(func(k int64, v int32) {
		if ref[k] != v {
			t.Fatalf("Range(%d) = %d, want %d", k, v, ref[k])
		}
		keys = append(keys, k)
	})
	if !slices.IsSorted(keys) || len(keys) != len(ref) {
		t.Fatalf("Range visited %v, want the %d keys ascending", keys, len(ref))
	}
	x.CheckCounts(func(format string, args ...any) { t.Fatalf(format, args...) })
	if x.Get(1<<40) != 0 {
		t.Fatal("Get beyond every chunk found a value")
	}
}

// TestIndexChunksFollowLiveKeys pins the memory rule: a chunk exists only
// while it holds a key, and an emptied chunk is reused rather than
// reallocated.
func TestIndexChunksFollowLiveKeys(t *testing.T) {
	var x Index
	x.Set(5, 1)
	x.Set(10*ChunkSize+1, 2)
	if n := x.Chunks(); n != 2 {
		t.Fatalf("%d chunks for keys in 2 chunks", n)
	}
	x.Clear(5)
	if n := x.Chunks(); n != 1 {
		t.Fatalf("%d chunks after the first chunk emptied, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		x.Set(3*ChunkSize, 7)
		x.Clear(3 * ChunkSize)
	}); n != 0 {
		t.Fatalf("refilling an emptied chunk allocates %.2f/op, want 0", n)
	}
	c := x.Clone()
	if c.Chunks() != 1 || c.Len() != 1 || c.Get(10*ChunkSize+1) != 2 {
		t.Fatal("a clone holds other keys or chunks than its source")
	}
	if n := testing.AllocsPerRun(100, func() {
		c.Set(3*ChunkSize, 7)
		c.Clear(3 * ChunkSize)
	}); n != 0 {
		t.Fatalf("a clone refilling its emptied chunk allocates %.2f/op, want 0: the spare did not carry over", n)
	}
}
