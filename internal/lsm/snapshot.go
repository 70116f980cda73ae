package lsm

import (
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/core"
)

// CopyFrom makes en's mutable state a deep copy of src's, an LSM engine
// built from the same Config shape: the base's state, the level hierarchy
// and durable run set, the manifest, the WAL with the memtable, the
// counters, the allocator's free list and the newest-version index. Runs
// are immutable after construction, so en shares them with src — a copy can
// never observe a mutation because none happen. The active WAL half's
// records are copied and the memtable relinked to the copies, key by key in
// src's order; the other half holds only records the manifest floor covers.
//
// src must be quiescent: no flush epoch (so no sealed memtable), no WAL
// activity in flight (see core.Base.CopyBase), no compaction, and every
// memtable cell's record in the active half's log — a cell holding any
// other record could not be relinked. src is only read.
func (en *Engine) CopyFrom(src core.Host) error {
	s, ok := src.(*Engine)
	if !ok {
		return fmt.Errorf("lsm: copy from a foreign engine (%T)", src)
	}
	if s.compacting {
		return fmt.Errorf("lsm: snapshot during a compaction")
	}
	log := s.walLogs[s.w.Active()]
	recs := make([]walRec, len(log))
	idxOf := make(map[*walRec]int, len(log))
	for i, rec := range log {
		recs[i] = *rec
		idxOf[rec] = i
	}
	for _, k := range s.mem.keys {
		rec := s.mem.cells[k]
		if _, ok := idxOf[rec]; !ok {
			return fmt.Errorf("lsm: snapshot: memtable cell for key %d holds WAL record %d, not in the active half's log", k, rec.seq)
		}
	}
	if err := en.CopyBase(&s.Base); err != nil {
		return err
	}

	for i := range en.levels {
		en.levels[i] = slices.Clone(s.levels[i])
	}
	en.nextRunID = s.nextRunID
	en.durableRuns = slices.Clone(s.durableRuns)
	en.durableFloor, en.manifestSeq = s.durableFloor, s.manifestSeq

	en.walSeq = s.walSeq
	en.walLogs = [2][]*walRec{}
	active := &en.walLogs[s.w.Active()]
	*active = make([]*walRec, len(recs))
	for i := range recs {
		(*active)[i] = &recs[i]
	}
	en.w.CopyFrom(s.w, active)
	en.mem.clear()
	en.imm.clear()
	for _, k := range s.mem.keys {
		en.mem.put(&recs[idxOf[s.mem.cells[k]]])
	}
	copy(en.newest, s.newest)

	en.st = s.st
	en.alloc.free = slices.Clone(s.alloc.free)
	en.compacting, en.compactDone = false, nil
	return nil
}
