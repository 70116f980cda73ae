package lsm

import (
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/core"
)

// EngineState is a deep copy of the LSM engine's mutable state at a
// quiescent instant. Runs are immutable after construction, so the level
// hierarchy and durable run set are copied as pointer slices sharing the
// run objects — a fork can never observe a mutation because none happen.
// The active WAL half's records are snapshotted by value and relinked on
// restore so a fork's memtable never aliases the template's records; the
// other half holds only records the manifest floor covers.
type EngineState struct {
	core.BaseState

	levels      [maxLevels][]*run
	durableRuns []*run
	nextRunID   uint64

	durableFloor int64
	manifestSeq  uint64

	wal    core.LogState
	walSeq int64
	walLog []walRec

	// memIdx maps key -> index into walLog (the memtable cell's record).
	memIdx map[int64]int

	st        Stats
	allocFree []extent
}

// SnapshotState captures the engine's mutable state as an *EngineState.
// Must be called at a quiescent instant: no flush epoch (so no sealed
// memtable), no WAL activity in flight (see core.Base.CaptureBase), no
// compaction. It fails if a memtable cell's record is not in the active
// WAL half's log, since a restore could not relink that cell.
func (en *Engine) SnapshotState() (any, error) {
	base, err := en.CaptureBase()
	if err != nil {
		return nil, err
	}
	if en.compacting {
		return nil, fmt.Errorf("lsm: snapshot during a compaction")
	}
	s := &EngineState{
		BaseState: base,

		durableRuns: append([]*run(nil), en.durableRuns...),
		nextRunID:   en.nextRunID,

		durableFloor: en.durableFloor,
		manifestSeq:  en.manifestSeq,

		wal:    en.w.State(),
		walSeq: en.walSeq,

		st:        en.st,
		allocFree: append([]extent(nil), en.alloc.free...),
	}
	for i := range en.levels {
		s.levels[i] = append([]*run(nil), en.levels[i]...)
	}
	// value-snapshot the active half's WAL records, remembering which one
	// each memtable cell points at
	log := en.walLogs[en.w.Active()]
	idxOf := make(map[*walRec]int, len(log))
	s.walLog = make([]walRec, len(log))
	for i, rec := range log {
		s.walLog[i] = *rec
		idxOf[rec] = i
	}
	s.memIdx = make(map[int64]int, len(en.mem))
	for k, rec := range en.mem {
		i, ok := idxOf[rec]
		if !ok {
			return nil, fmt.Errorf("lsm: snapshot: memtable cell for key %d holds WAL record %d, not in the active half's log", k, rec.seq)
		}
		s.memIdx[k] = i
	}
	return s, nil
}

// RestoreState installs a state captured by SnapshotState into en, which
// must be freshly constructed from the same Config shape. Records are
// re-linked into fresh walRec objects so the captured state stays pristine
// across any number of restores.
func (en *Engine) RestoreState(state any) error {
	s, ok := state.(*EngineState)
	if !ok {
		return fmt.Errorf("lsm: restore with a foreign engine state (%T)", state)
	}
	if err := en.RestoreBase(s.BaseState); err != nil {
		return err
	}
	en.durableRuns = append([]*run(nil), s.durableRuns...)
	en.nextRunID = s.nextRunID
	for i := range en.levels {
		en.levels[i] = append([]*run(nil), s.levels[i]...)
	}

	en.durableFloor = s.durableFloor
	en.manifestSeq = s.manifestSeq

	en.walSeq = s.walSeq
	en.walLogs = [2][]*walRec{}
	log := &en.walLogs[s.wal.Active()]
	*log = make([]*walRec, len(s.walLog))
	recs := slices.Clone(s.walLog)
	for i := range recs {
		(*log)[i] = &recs[i]
	}
	en.w.Restore(s.wal, log)
	en.mem = make(map[int64]*walRec, en.memHint)
	for k, i := range s.memIdx {
		en.mem[k] = (*log)[i]
	}
	en.imm = nil

	en.st = s.st
	en.alloc.free = append([]extent(nil), s.allocFree...)

	en.compacting = false
	en.compactDone = nil
	return nil
}
