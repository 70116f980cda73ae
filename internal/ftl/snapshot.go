package ftl

import (
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// Fork returns a new FTL on eng over array (a fork of src's array) whose
// state equals src's: the mapping with reference counts and both slot
// tables, block lifecycle and free pool, the per-stream write frontiers
// (including buffered partial-page slots — a stream tail can legitimately
// sit in the controller buffer across a quiescent point), the map-metadata
// cost model, the DFTL map, the recovery log and the counters. It starts
// from a copy of src's struct, so a field added to the FTL is copied by
// default. The address tables (chunkTable: l2p, refcnt, rev, the OOB
// records, the DFTL map copy and translation-page OOB) share src's chunks,
// which each side copies on its first write to them; every other table,
// per-call scratch included, gets its own storage of the same capacity,
// copied rather than built and overwritten. Fork sets only the wiring and
// the test hooks (disarmed). src must be quiescent — no collection in
// flight, every program complete, no translation-page writeback or
// checkpoint-cut batch open. Fork gives up src's ownership of its table
// chunks if src still holds any (see Share); after that it only reads src,
// so once src is shared any number of forks may run concurrently.
func Fork(eng *sim.Engine, array *nand.Array, src *FTL) (*FTL, error) {
	switch {
	case array.Geometry() != src.array.Geometry():
		return nil, fmt.Errorf("ftl: fork over an array of different geometry")
	case src.gcDepth != 0:
		return nil, fmt.Errorf("ftl: snapshot during garbage collection (depth %d)", src.gcDepth)
	case src.fm.flushing:
		return nil, fmt.Errorf("ftl: snapshot during translation-page writeback")
	case src.fm.batch:
		return nil, fmt.Errorf("ftl: snapshot inside a checkpoint-cut remap batch")
	}
	for s, l := range src.programs {
		if !src.eng.Passed(l.latest.at, l.latest.seq) {
			return nil, fmt.Errorf("ftl: snapshot with incomplete program on stream %d (FTL not quiescent)", s)
		}
	}
	f := new(FTL)
	*f = *src
	f.eng, f.array = eng, array
	f.lunsBuf = cloneReserve(src.lunsBuf)
	// The page-grouping stamps order one ReadInto or CopyCached call only,
	// and each call advances the epoch counter, which the fork keeps,
	// before it stamps: zeroed stamps read as unseen, as src's do.
	f.pageEpoch = make([]uint64, len(src.pageEpoch), cap(src.pageEpoch))
	f.pageCount = make([]int32, len(src.pageCount), cap(src.pageCount))
	f.pageOrder = cloneReserve(src.pageOrder)

	src.Share()
	f.l2p = src.l2p.fork()
	f.refcnt = src.refcnt.fork()
	f.rev = src.rev.fork()
	f.revOverflow = src.revOverflow.clone()

	f.state = cloneReserve(src.state)
	f.validCount = cloneReserve(src.validCount)
	f.written = cloneReserve(src.written)
	f.closedSeq = cloneReserve(src.closedSeq)
	f.freeByDie = cloneLists(src.freeByDie)
	f.spareByDie = cloneLists(src.spareByDie)
	f.pendingRetire = cloneReserve(src.pendingRetire)
	f.pendingReclaim = cloneReserve(src.pendingReclaim)
	f.pendingMark = cloneReserve(src.pendingMark)
	for s := range f.fronts {
		f.fronts[s] = slices.Clone(src.fronts[s]) // fixed length: one frontier per open block
		for i := range f.fronts[s] {
			f.fronts[s][i].fillLSNs = cloneReserve(src.fronts[s][i].fillLSNs)
		}
	}

	fm, sfm := &f.fm, &src.fm
	fm.oracle, fm.evictOracle, fm.enforced = false, nil, nil
	fm.cached = cloneReserve(sfm.cached)
	fm.dirty = cloneReserve(sfm.dirty)
	// The LRU arrays carry the run nodes' ids past the luns', so their
	// length follows the run pool; their capacity reserves the ids the
	// pool may still grow into, as every table's capacity is kept.
	fm.lruNext = cloneReserve(sfm.lruNext)
	fm.lruPrev = cloneReserve(sfm.lruPrev)
	fm.runs = cloneReserve(sfm.runs)
	fm.runBits = cloneReserve(sfm.runBits)
	fm.tpRuns = cloneReserve(sfm.tpRuns)
	fm.stored = sfm.stored.fork()
	fm.gtd = cloneReserve(sfm.gtd)
	fm.tpOwner = cloneReserve(sfm.tpOwner)
	fm.dirtyByTP = cloneReserve(sfm.dirtyByTP)
	fm.tpEpoch = cloneReserve(sfm.tpEpoch)

	r := *src.rlog
	r.oobLun = src.rlog.oobLun.fork()
	r.oobSeq = src.rlog.oobSeq.fork()
	r.aliases = src.rlog.aliases.clone()
	r.trims = cloneReserve(src.rlog.trims)
	r.tp = src.rlog.tp.fork()
	f.rlog = &r
	return f, nil
}

// Share gives up f's ownership of its address-table chunks, so forks may
// share them: f copies each chunk on its next write to it. A stack that
// forks will be taken from concurrently (a snapshot template) is shared
// once, before the first fork; Fork shares an unshared src itself, which
// is the only write a fork makes to its source.
func (f *FTL) Share() {
	for _, t := range f.tables() {
		t.share()
	}
}

// TableChunks counts an FTL's address-table chunks.
type TableChunks struct {
	Total int // chunks in the tables' directories
	// Owned counts the chunks the FTL writes in place: those it built, or
	// copied on a write since it was last shared or forked. OwnedBytes is
	// their size.
	Owned      int
	OwnedBytes int64
}

// TableChunks returns f's address-table chunk counts.
func (f *FTL) TableChunks() TableChunks {
	var c TableChunks
	for _, t := range f.tables() {
		c.Total += t.chunks()
		c.Owned += t.ownedChunks()
		c.OwnedBytes += int64(t.ownedChunks()) * t.chunkBytes()
	}
	return c
}

// table is what Share and TableChunks need of a chunkTable.
type table interface {
	share()
	chunks() int
	ownedChunks() int
	chunkBytes() int64
}

// tables lists f's address tables.
func (f *FTL) tables() []table {
	return []table{&f.l2p, &f.refcnt, &f.rev, &f.fm.stored, &f.rlog.oobLun, &f.rlog.oobSeq, &f.rlog.tp}
}

func cloneLists(src [][]int) [][]int {
	out := make([][]int, len(src), cap(src))
	for i, l := range src {
		out[i] = cloneReserve(l)
	}
	return out
}

// cloneReserve is slices.Clone keeping s's spare capacity, so the copy
// grows exactly when s would and appends into a reserve never reallocate.
// Like Clone, it copies instead of zeroing: the spare part's content is
// dead, and is copied as is, so T must hold no pointers.
func cloneReserve[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append([]T(nil), s[:cap(s)]...)[:len(s)]
}
