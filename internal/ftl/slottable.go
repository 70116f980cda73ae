package ftl

import "github.com/checkin-kv/checkin/internal/dense"

// slotTable maps a slot id to a short slice of T: the shared-slot reverse
// mappings (revOverflow) and the recovery log's remap alias records. Almost
// every slot has no entry, and the write, remap, trim and GC paths probe the
// table once per slot they touch, so it is a dense index (slot → pool
// index+1, 0 = none; lazily chunked, see internal/dense) over a pool of
// slices. A dropped slot's slice keeps its capacity on the free list, so a
// checkpoint burst followed by its journal trim allocates nothing once the
// pool has grown to the burst's size.
type slotTable[T any] struct {
	idx  dense.Index
	pool [][]T
	free []int32 // pool indexes (+1) whose slices are empty and unowned
}

// get returns sid's slice (nil when it has none). The result shares storage
// with the table: in-place element edits stick, length changes go through
// truncate.
func (t *slotTable[T]) get(sid int64) []T {
	if i := t.idx.Get(sid); i != 0 {
		return t.pool[i-1]
	}
	return nil
}

// add appends v to sid's slice, giving sid a pooled slice if it had none.
func (t *slotTable[T]) add(sid int64, v T) {
	i := t.idx.Get(sid)
	if i == 0 {
		if n := len(t.free); n > 0 {
			i = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			t.pool = append(t.pool, nil)
			i = int32(len(t.pool))
		}
		t.idx.Set(sid, i)
	}
	t.pool[i-1] = append(t.pool[i-1], v)
}

// truncate shortens sid's slice to n elements; at 0 the slot loses its
// entry and the slice returns to the free list.
func (t *slotTable[T]) truncate(sid int64, n int) {
	i := t.idx.Get(sid)
	if i == 0 {
		return
	}
	t.pool[i-1] = t.pool[i-1][:n]
	if n == 0 {
		t.idx.Clear(sid)
		t.free = append(t.free, i)
	}
}

// drop removes sid's entry, if any.
func (t *slotTable[T]) drop(sid int64) { t.truncate(sid, 0) }

// len returns the number of slots with an entry.
func (t *slotTable[T]) len() int { return t.idx.Len() }

// each calls fn for every slot with an entry, in ascending slot order.
func (t *slotTable[T]) each(fn func(sid int64, s []T)) {
	t.idx.Range(func(sid int64, i int32) { fn(sid, t.pool[i-1]) })
}

// clone returns a deep copy of t in which the pool, the free list and every
// pooled slice keep their capacity, so the copy grows and reuses its free
// list exactly when t would.
func (t *slotTable[T]) clone() slotTable[T] {
	c := slotTable[T]{idx: t.idx.Clone(), pool: make([][]T, len(t.pool), cap(t.pool)), free: cloneReserve(t.free)}
	for i, s := range t.pool {
		c.pool[i] = cloneReserve(s)
	}
	return c
}

// check reports every disagreement between the index and the pool: a set
// index must name a non-empty pool slice that is neither free nor shared
// with another slot, and the set indexes must account for every pool slice
// not on the free list.
func (t *slotTable[T]) check(name string, report func(format string, args ...any)) {
	owner := make([]bool, len(t.pool))
	for _, i := range t.free {
		if i < 1 || int(i) > len(t.pool) {
			report("%s: free list holds pool index %d outside [1,%d]", name, i, len(t.pool))
			continue
		}
		owner[i-1] = true
	}
	t.idx.Range(func(sid int64, i int32) {
		switch {
		case i < 1 || int(i) > len(t.pool):
			report("%s: slot %d indexes pool entry %d of %d", name, sid, i, len(t.pool))
		case owner[i-1]:
			report("%s: slot %d indexes pool entry %d, which is free or owned by another slot", name, sid, i)
		case len(t.pool[i-1]) == 0:
			owner[i-1] = true
			report("%s: slot %d indexes empty pool entry %d", name, sid, i)
		default:
			owner[i-1] = true
		}
	})
	if live := len(t.pool) - len(t.free); t.idx.Len() != live {
		report("%s: %d slots indexed but %d pool entries live", name, t.idx.Len(), live)
	}
	t.idx.CheckCounts(func(format string, args ...any) {
		report(name+": "+format, args...)
	})
}
