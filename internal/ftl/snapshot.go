package ftl

import (
	"fmt"
	"slices"
)

// CopyFrom makes f's mutable state a deep copy of src's: the mapping with
// reference counts and both slot tables, block lifecycle and free pool, the
// per-stream write frontiers (including buffered partial-page slots — a
// stream tail can legitimately sit in the controller buffer across a
// quiescent point), the map-metadata cost model, the DFTL map, the recovery
// log and the counters. f must have been built from the same Config over an
// array of the same geometry; it keeps its kernel, array, test hooks and
// per-call scratch. src must be quiescent — no collection in flight, every
// program complete, no translation-page writeback or checkpoint-cut batch
// open — and is only read, so any number of copies may run concurrently.
func (f *FTL) CopyFrom(src *FTL) error {
	switch {
	case f.cfg != src.cfg || f.array.Geometry() != src.array.Geometry():
		return fmt.Errorf("ftl: copy between FTLs of different configuration or geometry")
	case src.gcDepth != 0:
		return fmt.Errorf("ftl: snapshot during garbage collection (depth %d)", src.gcDepth)
	case src.fm.flushing:
		return fmt.Errorf("ftl: snapshot during translation-page writeback")
	case src.fm.batch:
		return fmt.Errorf("ftl: snapshot inside a checkpoint-cut remap batch")
	}
	for s, l := range src.programs {
		if !src.eng.Passed(l.latest.at, l.latest.seq) {
			return fmt.Errorf("ftl: snapshot with incomplete program on stream %d (FTL not quiescent)", s)
		}
	}
	own := *f
	*f = *src
	f.eng, f.array = own.eng, own.array
	f.lunsBuf, f.epoch, f.pageEpoch, f.pageCount, f.pageOrder = own.lunsBuf, own.epoch, own.pageEpoch, own.pageCount, own.pageOrder
	f.fm.oracle, f.fm.evictOracle, f.fm.enforced = own.fm.oracle, own.fm.evictOracle, own.fm.enforced

	f.l2p = append(own.l2p[:0], src.l2p...)
	f.refcnt = append(own.refcnt[:0], src.refcnt...)
	f.rev = append(own.rev[:0], src.rev...)
	f.revOverflow = own.revOverflow
	f.revOverflow.copyFrom(&src.revOverflow)

	f.state = append(own.state[:0], src.state...)
	f.validCount = append(own.validCount[:0], src.validCount...)
	f.written = append(own.written[:0], src.written...)
	f.closedSeq = append(own.closedSeq[:0], src.closedSeq...)
	f.freeByDie = cloneLists(src.freeByDie)
	f.spareByDie = cloneLists(src.spareByDie)
	f.pendingRetire = slices.Clone(src.pendingRetire)
	f.pendingReclaim = slices.Clone(src.pendingReclaim)
	f.pendingMark = append(own.pendingMark[:0], src.pendingMark...)
	for s := range f.fronts {
		f.fronts[s] = slices.Clone(src.fronts[s])
		for i := range f.fronts[s] {
			f.fronts[s][i].fillLSNs = slices.Clone(src.fronts[s][i].fillLSNs)
		}
	}

	fm, sfm := &f.fm, &src.fm
	fm.cached = append(own.fm.cached[:0], sfm.cached...)
	fm.dirty = append(own.fm.dirty[:0], sfm.dirty...)
	// The LRU arrays carry the run nodes' ids past the luns', so their
	// length follows the run pool.
	fm.lruNext = append(own.fm.lruNext[:0], sfm.lruNext...)
	fm.lruPrev = append(own.fm.lruPrev[:0], sfm.lruPrev...)
	fm.runs = append(own.fm.runs[:0], sfm.runs...)
	fm.runBits = append(own.fm.runBits[:0], sfm.runBits...)
	fm.tpRuns = append(own.fm.tpRuns[:0], sfm.tpRuns...)
	fm.stored = append(own.fm.stored[:0], sfm.stored...)
	fm.gtd = append(own.fm.gtd[:0], sfm.gtd...)
	fm.tpOwner = append(own.fm.tpOwner[:0], sfm.tpOwner...)
	fm.dirtyByTP = append(own.fm.dirtyByTP[:0], sfm.dirtyByTP...)
	fm.tpEpoch = append(own.fm.tpEpoch[:0], sfm.tpEpoch...)

	r, ownLog := own.rlog, *own.rlog
	*r = *src.rlog
	r.oob = append(ownLog.oob[:0], src.rlog.oob...)
	r.aliases = ownLog.aliases
	r.aliases.copyFrom(&src.rlog.aliases)
	r.trims = slices.Clone(src.rlog.trims)
	r.tp = append(ownLog.tp[:0], src.rlog.tp...)
	f.rlog = r
	return nil
}

func cloneLists(src [][]int) [][]int {
	out := make([][]int, len(src))
	for i, l := range src {
		out[i] = slices.Clone(l)
	}
	return out
}
