package lsm

import (
	"fmt"
	"slices"
	"sort"
)

// sector is the block-interface granularity run entries align to.
const sector = 512

func roundUp(v, to int64) int64 {
	if to <= 0 {
		return v
	}
	return (v + to - 1) / to * to
}

// extent is a contiguous device range.
type extent struct {
	off, len int64
}

// run is one sorted run on flash: entries in key order, each in a
// sector-aligned slot inside the run's extent. The metadata (keys, versions,
// sizes, per-entry offsets) stays host-resident — the in-memory index a real
// engine would rebuild from the run's footer. A point read does not search
// it: the engine's newest-version index (Engine.newest), updated from this
// metadata when the run is installed, holds the slot of every key's newest
// version. Compaction merges, Scan's bottom-run ranges and recovery read
// the metadata itself.
//
// A run never changes while a level, the durable set or a fork holds it.
// Its life: planned (takeRun fills it in place), installed in a level,
// made durable by a manifest publish, deleted by the compaction that
// merged it once a later publish has dropped it from the durable set, and
// then refilled by a later takeRun unless a fork shares it (see
// Engine.recycle).
type run struct {
	id    uint64
	level int
	ext   extent

	keys  []int64
	vers  []int64
	sizes []int32
	offs  []int64 // absolute device offset per entry

	payload int64 // raw value bytes (stats)

	// shared marks a run a fork may hold (see Engine.Share): neither the
	// fork nor its source refills it once deleted.
	shared bool
}

// runEntry is the builder's input: one key's newest version.
type runEntry struct {
	key     int64
	version int64
	size    int
}

// makeRun returns a run with no entries and room for n.
func makeRun(n int) *run {
	return &run{
		keys:  make([]int64, 0, n),
		vers:  make([]int64, 0, n),
		sizes: make([]int32, 0, n),
		offs:  make([]int64, 0, n),
	}
}

// add appends key's version of size bytes in the slot at off, where the
// run's last slot ends, and returns where the new slot ends. Keys are
// added in ascending order.
func (r *run) add(key, version int64, size int, off int64) int64 {
	r.keys = append(r.keys, key)
	r.vers = append(r.vers, version)
	r.sizes = append(r.sizes, int32(size))
	r.offs = append(r.offs, off)
	r.payload += int64(size)
	return off + roundUp(int64(size), sector)
}

// find returns the index of key in the run, or ok=false when the run does
// not hold it.
func (r *run) find(key int64) (int, bool) {
	return slices.BinarySearch(r.keys, key)
}

// dataBytes returns the laid-out (slot-padded) size of the run.
func (r *run) dataBytes() int64 {
	if len(r.keys) == 0 {
		return 0
	}
	last := len(r.keys) - 1
	return r.offs[last] + roundUp(int64(r.sizes[last]), sector) - r.offs[0]
}

// allocator hands out extents from the run area with a first-fit free list
// (sorted by offset, coalescing on release). Deterministic by construction.
type allocator struct {
	area extent
	free []extent
}

func newAllocator(area extent) *allocator {
	return &allocator{area: area, free: []extent{area}}
}

// take allocates n bytes (caller aligns n), first fit.
func (a *allocator) take(n int64) (int64, bool) {
	for i := range a.free {
		if a.free[i].len >= n {
			off := a.free[i].off
			a.free[i].off += n
			a.free[i].len -= n
			if a.free[i].len == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return off, true
		}
	}
	return 0, false
}

// release returns an extent to the free list, merging neighbours.
func (a *allocator) release(e extent) {
	if e.len == 0 {
		return
	}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= e.off })
	a.free = append(a.free, extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = e
	// coalesce with the successor, then the predecessor
	if i+1 < len(a.free) && a.free[i].off+a.free[i].len == a.free[i+1].off {
		a.free[i].len += a.free[i+1].len
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].len == a.free[i].off {
		a.free[i-1].len += a.free[i].len
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// freeBytes sums the free list.
func (a *allocator) freeBytes() int64 {
	var sum int64
	for _, e := range a.free {
		sum += e.len
	}
	return sum
}

// utilization returns the allocated fraction of the run area.
func (a *allocator) utilization() float64 {
	if a.area.len == 0 {
		return 1
	}
	return 1 - float64(a.freeBytes())/float64(a.area.len)
}

// largest returns the length of the largest free extent (0 when none).
func (a *allocator) largest() int64 {
	var n int64
	for _, e := range a.free {
		n = max(n, e.len)
	}
	return n
}

// fits reports whether take(n) would succeed: first fit finds an extent
// exactly when some free extent holds at least n bytes.
func (a *allocator) fits(n int64) bool {
	for _, e := range a.free {
		if e.len >= n {
			return true
		}
	}
	return false
}

func (a *allocator) String() string {
	return fmt.Sprintf("alloc[%d free in %d extents of %d]", a.freeBytes(), len(a.free), a.area.len)
}
