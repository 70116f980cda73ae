package ftl

import (
	"slices"

	"github.com/checkin-kv/checkin/internal/dense"
)

// slotTable maps a slot id to a short slice of T: the shared-slot reverse
// mappings (revOverflow) and the recovery log's remap alias records. Almost
// every slot has no entry, almost every slot that has one has exactly one,
// and the write, remap, trim and GC paths probe the table once per slot
// they touch. So the table is inline-first:
//
//   - one chunk per erase block, allocated the first time one of the
//     block's slots gains an entry, holds each slot's first entry and a
//     state byte (empty, inline or overflow) — one entry plus one byte per
//     slot, in a single allocation;
//   - a slot with two or more entries keeps all of them in a pooled slice
//     behind a dense index (slot → pool index+1, see internal/dense); a
//     dropped slice keeps its capacity on the free list, so a checkpoint
//     burst followed by its journal trim allocates nothing once the pool
//     has grown to the burst's size;
//   - a chunk whose last entry clears is zeroed and goes to a spare list,
//     and dropBlock releases an erased block's chunk in one step.
//
// The block directory is allocated with the first entry, so a table that
// never gets one (Baseline never remaps) costs nothing.
type slotTable[T any] struct {
	span   int64            // slots per chunk: one erase block
	blocks int              // erase blocks the directory covers
	chunks [][]slotGroup[T] // block → its slots' first entries, nil while empty
	counts []int32          // block → slots with an entry
	spare  [][]slotGroup[T] // zeroed chunks released for reuse
	n      int              // slots with an entry

	ovIdx dense.Index // overflow slot → pool index+1
	pool  [][]T
	free  []int32 // pool indexes (+1) whose slices are empty and unowned
}

// slotGroup holds eight consecutive slots' first entries and states, laid
// out so a chunk costs exactly one entry plus one byte per slot.
type slotGroup[T any] struct {
	first [groupSlots]T
	state [groupSlots]uint8
}

const groupSlots = 8

// Slot states. An overflow slot's entries all live in its pooled slice; its
// inline entry is dead until the slot shrinks back to one entry.
const (
	slotEmpty uint8 = iota
	slotInline
	slotOverflow
)

// newSlotTable returns an empty table over blocks erase blocks of span slots.
func newSlotTable[T any](blocks int, span int64) slotTable[T] {
	return slotTable[T]{span: span, blocks: blocks}
}

// at locates sid: its block and, within the block's chunk, its group and
// position.
func (t *slotTable[T]) at(sid int64) (blk, g, i int64) {
	blk = sid / t.span
	off := sid - blk*t.span
	return blk, off / groupSlots, off % groupSlots
}

// get returns sid's slice (nil when it has none). The result shares storage
// with the table: in-place element edits stick, length changes go through
// truncate.
func (t *slotTable[T]) get(sid int64) []T {
	if t.n == 0 {
		return nil
	}
	blk, g, i := t.at(sid)
	ch := t.chunks[blk]
	if ch == nil {
		return nil
	}
	switch grp := &ch[g]; grp.state[i] {
	case slotInline:
		return grp.first[i : i+1 : i+1]
	case slotOverflow:
		return t.pool[t.ovIdx.Get(sid)-1]
	}
	return nil
}

// add appends v to sid's entries. A slot's first entry goes inline; a
// second moves both into a pooled slice.
func (t *slotTable[T]) add(sid int64, v T) {
	if t.chunks == nil {
		t.chunks, t.counts = make([][]slotGroup[T], t.blocks), make([]int32, t.blocks)
	}
	blk, g, i := t.at(sid)
	ch := t.chunks[blk]
	if ch == nil {
		ch = t.takeChunk()
		t.chunks[blk] = ch
	}
	grp := &ch[g]
	switch grp.state[i] {
	case slotEmpty:
		grp.first[i], grp.state[i] = v, slotInline
		t.counts[blk]++
		t.n++
	case slotInline:
		var p int32
		if n := len(t.free); n > 0 {
			p = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			t.pool = append(t.pool, nil)
			p = int32(len(t.pool))
		}
		t.ovIdx.Set(sid, p)
		t.pool[p-1] = append(t.pool[p-1], grp.first[i], v)
		grp.state[i] = slotOverflow
	default:
		p := t.ovIdx.Get(sid)
		t.pool[p-1] = append(t.pool[p-1], v)
	}
}

// truncate shortens sid's entries to n. At one the survivor moves back
// inline and the pooled slice returns to the free list; at 0 the slot loses
// its entry, and a chunk left without entries goes to the spare list.
func (t *slotTable[T]) truncate(sid int64, n int) {
	if t.n == 0 {
		return
	}
	blk, g, i := t.at(sid)
	ch := t.chunks[blk]
	if ch == nil {
		return
	}
	grp := &ch[g]
	switch grp.state[i] {
	case slotEmpty:
		return
	case slotOverflow:
		p := t.ovIdx.Get(sid)
		s := t.pool[p-1]
		if n >= 2 {
			t.pool[p-1] = s[:n]
			return
		}
		if n == 1 {
			grp.first[i] = s[0]
		}
		t.pool[p-1] = s[:0]
		t.ovIdx.Clear(sid)
		t.free = append(t.free, p)
		grp.state[i] = slotInline
	}
	if n == 0 {
		grp.state[i] = slotEmpty
		t.n--
		if t.counts[blk]--; t.counts[blk] == 0 {
			t.releaseChunk(blk)
		}
	}
}

// drop removes sid's entries, if any.
func (t *slotTable[T]) drop(sid int64) { t.truncate(sid, 0) }

// dropBlock removes every entry of the erase block holding sid in one step:
// the block's overflow slices return to the free list and its chunk to the
// spare list.
func (t *slotTable[T]) dropBlock(sid int64) {
	if t.n == 0 {
		return
	}
	blk := sid / t.span
	ch := t.chunks[blk]
	if ch == nil {
		return
	}
	for off := int64(0); off < t.span && t.ovIdx.Len() > 0; off++ {
		if ch[off/groupSlots].state[off%groupSlots] == slotOverflow {
			s := blk*t.span + off
			p := t.ovIdx.Get(s)
			t.pool[p-1] = t.pool[p-1][:0]
			t.ovIdx.Clear(s)
			t.free = append(t.free, p)
		}
	}
	t.n -= int(t.counts[blk])
	t.counts[blk] = 0
	t.releaseChunk(blk)
}

// len returns the number of slots with an entry.
func (t *slotTable[T]) len() int { return t.n }

// each calls fn for every slot with an entry, in ascending slot order.
func (t *slotTable[T]) each(fn func(sid int64, s []T)) {
	for blk, ch := range t.chunks {
		for off := int64(0); off < t.span && ch != nil; off++ {
			if ch[off/groupSlots].state[off%groupSlots] != slotEmpty {
				sid := int64(blk)*t.span + off
				fn(sid, t.get(sid))
			}
		}
	}
}

// clone returns a deep copy of t in which every chunk, spare chunk, pooled
// slice and list keeps its capacity, so the copy allocates exactly when t
// would.
func (t *slotTable[T]) clone() slotTable[T] {
	c := *t
	c.chunks = slices.Clone(t.chunks)
	for blk, ch := range t.chunks {
		if ch != nil {
			c.chunks[blk] = slices.Clone(ch)
		}
	}
	c.counts = slices.Clone(t.counts)
	c.spare = make([][]slotGroup[T], len(t.spare), cap(t.spare))
	for i := range c.spare {
		c.spare[i] = t.newChunk() // spares are zeroed on release
	}
	c.ovIdx = t.ovIdx.Clone()
	c.pool = make([][]T, len(t.pool), cap(t.pool))
	for i, s := range t.pool {
		c.pool[i] = cloneReserve(s)
	}
	c.free = cloneReserve(t.free)
	return c
}

func (t *slotTable[T]) newChunk() []slotGroup[T] {
	return make([]slotGroup[T], (t.span+groupSlots-1)/groupSlots)
}

func (t *slotTable[T]) takeChunk() []slotGroup[T] {
	if n := len(t.spare); n > 0 {
		ch := t.spare[n-1]
		t.spare[n-1] = nil
		t.spare = t.spare[:n-1]
		return ch
	}
	return t.newChunk()
}

// releaseChunk zeroes blk's chunk, dead inline entries included, and moves
// it to the spare list.
func (t *slotTable[T]) releaseChunk(blk int64) {
	ch := t.chunks[blk]
	clear(ch)
	t.chunks[blk] = nil
	t.spare = append(t.spare, ch)
}

// check reports every disagreement in the layout: a chunk's state count
// must match its recorded count (and an allocated chunk must hold an
// entry), an overflow slot must own a pooled slice of two or more entries
// that no other slot or the free list holds, an inline slot must have no
// overflow index, the per-block counts must add up to len, spare chunks
// must be zeroed, and the overflow slots must account for every pooled
// slice not on the free list.
func (t *slotTable[T]) check(name string, report func(format string, args ...any)) {
	owner := make([]bool, len(t.pool))
	for _, p := range t.free {
		if p < 1 || int(p) > len(t.pool) {
			report("%s: free list holds pool index %d outside [1,%d]", name, p, len(t.pool))
			continue
		}
		owner[p-1] = true
	}
	total, overflow := 0, 0
	for blk, ch := range t.chunks {
		n := 0
		for off := int64(0); off < t.span && ch != nil; off++ {
			sid, st := int64(blk)*t.span+off, ch[off/groupSlots].state[off%groupSlots]
			p := t.ovIdx.Get(sid)
			switch st {
			case slotEmpty:
				if p != 0 {
					report("%s: empty slot %d indexes pool entry %d", name, sid, p)
				}
				continue
			case slotInline:
				if p != 0 {
					report("%s: inline slot %d also indexes pool entry %d", name, sid, p)
				}
			case slotOverflow:
				overflow++
				switch {
				case p < 1 || int(p) > len(t.pool):
					report("%s: overflow slot %d indexes pool entry %d of %d", name, sid, p, len(t.pool))
				case owner[p-1]:
					report("%s: slot %d indexes pool entry %d, which is free or owned by another slot", name, sid, p)
				case len(t.pool[p-1]) < 2:
					owner[p-1] = true
					report("%s: overflow slot %d holds %d entries, want two or more", name, sid, len(t.pool[p-1]))
				default:
					owner[p-1] = true
				}
			default:
				report("%s: slot %d in unknown state %d", name, sid, st)
			}
			n++
		}
		if ch != nil && n == 0 {
			report("%s: block %d's chunk allocated but empty", name, blk)
		}
		if int32(n) != t.counts[blk] {
			report("%s: block %d holds %d slots with entries but counts %d", name, blk, n, t.counts[blk])
		}
		total += n
	}
	if total != t.n {
		report("%s: %d slots with entries but len %d", name, total, t.n)
	}
	if t.ovIdx.Len() != overflow {
		report("%s: %d overflow slots but %d indexed", name, overflow, t.ovIdx.Len())
	}
	if live := len(t.pool) - len(t.free); overflow != live {
		report("%s: %d overflow slots but %d pool entries live", name, overflow, live)
	}
	for i, ch := range t.spare {
		for g := range ch {
			if ch[g].state != [groupSlots]uint8{} {
				report("%s: spare chunk %d holds a set state", name, i)
				break
			}
		}
	}
	t.ovIdx.CheckCounts(func(format string, args ...any) {
		report(name+": "+format, args...)
	})
}
