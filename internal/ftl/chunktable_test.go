package ftl

// ownAll gives t its own copy of every chunk, laid out in one allocation as
// newChunkTable lays a table out, flat view included.
func ownAll[T tableEntry](t *chunkTable[T]) {
	back := make([]T, len(t.dir)<<chunkShift)
	for c := range t.dir {
		vals := back[c<<chunkShift : (c+1)<<chunkShift]
		copy(vals, t.dir[c])
		t.dir[c], t.own[c] = vals, true
	}
	t.flat, t.owned = back[:t.n], len(t.dir)
}

// ownTables gives f its own copy of every address table, each laid out as
// New lays it out. A benchmark that forks a pristine FTL per iteration
// calls it outside the timer, so the timed run prices the host path on the
// device New builds, not the fork's first chunk copies or where the
// allocator put them.
func ownTables(f *FTL) {
	ownAll(&f.l2p)
	ownAll(&f.refcnt)
	ownAll(&f.rev)
	ownAll(&f.fm.stored)
	ownAll(&f.rlog.oobLun)
	ownAll(&f.rlog.oobSeq)
	ownAll(&f.rlog.tp)
}

// entries returns a copy of t's entries as a plain slice.
func entries[T tableEntry](t *chunkTable[T]) []T {
	out := make([]T, 0, t.len())
	for _, v := range t.all() {
		out = append(out, v)
	}
	return out
}
