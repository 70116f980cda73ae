package ftl

import (
	"iter"
	"slices"
	"unsafe"
)

// A chunkTable's entries live in chunks of chunkSpan entries, a power of
// two, so an index splits into its chunk and offset by a shift and a mask.
// 1024 entries is 4 KiB of a 32-bit table: two erase blocks' slots at the
// benchmark geometry (64 pages of eight 512 B units).
const (
	chunkShift = 10
	chunkSpan  = 1 << chunkShift
	chunkMask  = chunkSpan - 1
)

// tableEntry is what a chunkTable holds: a 32-bit address, a reference
// count or a sequence number.
type tableEntry interface{ ~uint8 | ~int32 | ~uint64 }

// chunkTable is a fixed-length array of n entries, the FTL's per-slot and
// per-unit address tables (l2p, rev, refcnt, the OOB records, the DFTL
// map copy and translation-page OOB). Its storage is a directory of
// chunks that forks share copy-on-write: a table owns the chunks it
// built or copied and writes them in place; a write to a chunk it does
// not own first copies the chunk and repoints its own directory entry.
// fork copies only the directory and owns nothing, so a fresh fork costs
// one directory per table, and a stack holds private copies of just the
// chunks it wrote since. A shared chunk is never written, so any number of
// forks may read one concurrently; a chunk no directory points at any
// longer is the garbage collector's.
//
// A table that owns all its chunks in the one allocation newChunkTable
// made — every table of a stack that was built, not forked — also holds
// that allocation as flat, and indexes it directly: the directory walk
// costs a directly built stack 5–15% on its host and GC paths, which only
// sharing needs. share drops flat, so a template and its forks go through
// the directory. The directory holds slices rather than array pointers: a
// read then checks its offset against the slice length it already loaded,
// where an array pointer costs a nil check that touches the chunk's first
// line. Through the directory, indexes are not checked against n: an index
// past n within the last chunk reads its padding, so callers keep the
// bounds they kept for the plain slices this replaces.
type chunkTable[T tableEntry] struct {
	n     int64
	flat  []T    // all n entries while the table owns them in one allocation, else nil
	dir   [][]T  // chunk c holds entries [c<<chunkShift, (c+1)<<chunkShift)
	own   []bool // chunk c may be written in place
	owned int    // chunks with own set
}

// newChunkTable returns a table of n entries set to fill, owning every
// chunk. The chunks share one allocation.
func newChunkTable[T tableEntry](n int64, fill T) chunkTable[T] {
	nc := (n + chunkMask) >> chunkShift
	back := make([]T, nc<<chunkShift)
	if fill != 0 {
		for i := range back {
			back[i] = fill
		}
	}
	t := chunkTable[T]{n: n, flat: back[:n], dir: make([][]T, nc), own: make([]bool, nc), owned: int(nc)}
	for c := range t.dir {
		t.dir[c] = back[c<<chunkShift : (c+1)<<chunkShift : (c+1)<<chunkShift]
		t.own[c] = true
	}
	return t
}

// len returns the number of entries.
func (t *chunkTable[T]) len() int64 { return t.n }

// at returns entry i.
func (t *chunkTable[T]) at(i int64) T {
	if t.flat != nil {
		return t.flat[i]
	}
	return t.chunkAt(i)
}

// chunkAt is at through the directory. It and chunkRef stay out of line:
// inlined at every table access, the directory walk's code cost built
// stacks, which never take it, 3–4% of their simulation speed.
//
//go:noinline
func (t *chunkTable[T]) chunkAt(i int64) T { return t.dir[i>>chunkShift][i&chunkMask] }

// set stores v at entry i.
func (t *chunkTable[T]) set(i int64, v T) { *t.ref(i) = v }

// ref returns entry i for writing, first making its chunk the table's own.
func (t *chunkTable[T]) ref(i int64) *T {
	if t.flat != nil {
		return &t.flat[i]
	}
	return t.chunkRef(i)
}

// chunkRef is ref through the directory.
//
//go:noinline
func (t *chunkTable[T]) chunkRef(i int64) *T {
	c := i >> chunkShift
	if !t.own[c] {
		t.private(c)
	}
	return &t.dir[c][i&chunkMask]
}

// private replaces chunk c, shared, with the table's own copy.
func (t *chunkTable[T]) private(c int64) {
	vals := new([chunkSpan]T)
	copy(vals[:], t.dir[c])
	t.dir[c], t.own[c] = vals[:], true
	t.owned++
}

// fill stores v at entries [lo, hi).
func (t *chunkTable[T]) fill(lo, hi int64, v T) {
	if t.flat != nil {
		fillSlice(t.flat[lo:hi], v)
		return
	}
	for lo < hi {
		end := min(hi, (lo|chunkMask)+1)
		c := lo >> chunkShift
		if !t.own[c] {
			t.private(c)
		}
		fillSlice(t.dir[c][lo&chunkMask:(end-1)&chunkMask+1], v)
		lo = end
	}
}

// fillSlice stores v in every element of s; zero, the erase path's value,
// goes through clear.
func fillSlice[T tableEntry](s []T, v T) {
	if v == 0 {
		clear(s)
		return
	}
	for i := range s {
		s[i] = v
	}
}

// fork returns a table holding t's entries that shares every chunk with t
// and owns none. t must own none either (see share), or a write through t
// would show through the fork; fork only reads t.
func (t *chunkTable[T]) fork() chunkTable[T] {
	c := *t
	c.flat = nil
	c.dir = slices.Clone(t.dir)
	c.own = make([]bool, len(t.own))
	c.owned = 0
	return c
}

// share gives up t's ownership of its chunks, so forks may share them: t's
// next write to each copies it first. It writes t only when t owns a
// chunk.
func (t *chunkTable[T]) share() {
	if t.owned == 0 {
		return
	}
	t.flat = nil
	clear(t.own)
	t.owned = 0
}

// all yields every index with its entry, in index order.
func (t *chunkTable[T]) all() iter.Seq2[int64, T] {
	return func(yield func(int64, T) bool) {
		for c, r := range t.dir {
			base := int64(c) << chunkShift
			for i, v := range r[:min(chunkSpan, t.n-base)] {
				if !yield(base+int64(i), v) {
					return
				}
			}
		}
	}
}

// ownedChunks returns the number of chunks t owns.
func (t *chunkTable[T]) ownedChunks() int { return t.owned }

// chunks returns the number of chunks in t's directory.
func (t *chunkTable[T]) chunks() int { return len(t.dir) }

// chunkBytes returns the size of one chunk.
func (t *chunkTable[T]) chunkBytes() int64 { return int64(unsafe.Sizeof([chunkSpan]T{})) }
