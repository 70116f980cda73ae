// Package dense provides a lazily chunked integer index: a map from small
// non-negative int64 keys (slot ids, unit numbers) to nonzero int32 values
// that replaces a Go map on the per-operation path.
//
// A lookup is two bounds-checked slice loads instead of a hash probe. Memory
// follows the live keys rather than the key space: the index is split into
// chunks of ChunkSize entries, a chunk is allocated the first time one of
// its keys is set, and it returns to a spare list when its last key clears.
// One flat array sized to the device would be simpler, but every engine+SSD
// stack carries its own indexes and a sharded run holds several stacks.
package dense

import "slices"

// ChunkSize is the number of keys one chunk covers.
const ChunkSize = 1 << chunkBits

const (
	chunkBits = 12
	chunkMask = ChunkSize - 1
)

// Index maps keys to nonzero int32 values; 0 means absent. The zero value is
// an empty index.
type Index struct {
	chunks [][]int32 // chunk number → entries, nil while the chunk is empty
	counts []int32   // chunk number → nonzero entries in it
	spare  [][]int32 // zeroed chunks released for reuse
	n      int       // nonzero entries overall
}

// Get returns k's value, or 0 when k is absent.
func (x *Index) Get(k int64) int32 {
	c := k >> chunkBits
	if c >= int64(len(x.chunks)) {
		return 0
	}
	if ch := x.chunks[c]; ch != nil {
		return ch[k&chunkMask]
	}
	return 0
}

// Set stores v (nonzero) under k, allocating k's chunk if needed.
func (x *Index) Set(k int64, v int32) {
	if v == 0 {
		panic("dense: Set of the absent value 0")
	}
	c := k >> chunkBits
	for c >= int64(len(x.chunks)) {
		x.chunks = append(x.chunks, nil)
		x.counts = append(x.counts, 0)
	}
	ch := x.chunks[c]
	if ch == nil {
		ch = x.takeChunk()
		x.chunks[c] = ch
	}
	e := &ch[k&chunkMask]
	if *e == 0 {
		x.counts[c]++
		x.n++
	}
	*e = v
}

// Clear removes k. An emptied chunk goes to the spare list.
func (x *Index) Clear(k int64) {
	c := k >> chunkBits
	if c >= int64(len(x.chunks)) {
		return
	}
	ch := x.chunks[c]
	if ch == nil || ch[k&chunkMask] == 0 {
		return
	}
	ch[k&chunkMask] = 0
	x.n--
	if x.counts[c]--; x.counts[c] == 0 {
		x.chunks[c] = nil
		x.spare = append(x.spare, ch)
	}
}

// Len returns the number of keys present.
func (x *Index) Len() int { return x.n }

// Clone returns a deep copy of x, spare chunks and capacities included, so
// the copy allocates exactly when x would. x is only read.
func (x *Index) Clone() Index {
	counts := append(make([]int32, 0, cap(x.counts)), x.counts...)
	return Index{chunks: cloneChunks(x.chunks), counts: counts, spare: cloneChunks(x.spare), n: x.n}
}

// cloneChunks deep-copies a chunk list; nil chunks stay nil.
func cloneChunks(chunks [][]int32) [][]int32 {
	if chunks == nil {
		return nil
	}
	out := make([][]int32, len(chunks), cap(chunks))
	for i, ch := range chunks {
		if ch != nil {
			out[i] = slices.Clone(ch)
		}
	}
	return out
}

// Range calls fn for every present key in ascending key order. fn must not
// modify the index.
func (x *Index) Range(fn func(k int64, v int32)) {
	for c, ch := range x.chunks {
		if ch == nil {
			continue
		}
		base := int64(c) << chunkBits
		for i, v := range ch {
			if v != 0 {
				fn(base+int64(i), v)
			}
		}
	}
}

// Chunks returns the number of chunks currently allocated to keys (spares
// excluded) — the index's footprint in ChunkSize units.
func (x *Index) Chunks() int {
	n := 0
	for _, ch := range x.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

// CheckCounts reports, through report, every chunk whose recorded count
// disagrees with its entries, and a total that disagrees with the chunks.
// It is the index's own invariant, for callers' consistency checkers.
func (x *Index) CheckCounts(report func(format string, args ...any)) {
	total := 0
	for c, ch := range x.chunks {
		n := 0
		for _, v := range ch {
			if v != 0 {
				n++
			}
		}
		if ch != nil && n == 0 {
			report("dense: chunk %d allocated but empty", c)
		}
		if int32(n) != x.counts[c] {
			report("dense: chunk %d holds %d entries but counts %d", c, n, x.counts[c])
		}
		total += n
	}
	if total != x.n {
		report("dense: %d entries present but Len %d", total, x.n)
	}
}

func (x *Index) takeChunk() []int32 {
	if n := len(x.spare); n > 0 {
		ch := x.spare[n-1]
		x.spare[n-1] = nil
		x.spare = x.spare[:n-1]
		return ch
	}
	return make([]int32, ChunkSize)
}
