package lsm

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/core"
)

// EngineState is a deep copy of the LSM engine's mutable state at a
// quiescent instant. Runs are immutable after construction, so the level
// hierarchy and durable run set are copied as pointer slices sharing the
// run objects — a fork can never observe a mutation because none happen.
// WAL records are snapshotted by value and relinked on restore so a fork's
// memtable never aliases the template's records.
type EngineState struct {
	version []int64
	durable []int64
	deleted []bool

	levels      [maxLevels][]*run
	durableRuns []*run
	nextRunID   uint64

	durableFloor int64
	manifestSeq  uint64

	walActive int
	walHead   int64
	walSeq    int64
	walStats  core.JournalStats
	walLive   []walRec

	// mem maps key -> index into walLive (the memtable cell's record);
	// -1 when the record fell below the floor snapshot (cannot happen for
	// live memtable cells, but kept defensive).
	memIdx map[int64]int

	ckptEpoch   uint64
	remapTotals struct{ Remapped, RMWs, Skipped int }
	st          Stats
	allocFree   []extent
}

// Snapshot captures the engine's mutable state. Must be called at a
// quiescent instant: no flush epoch, no sealed memtable, no WAL activity in
// flight, no compaction, no closed gate.
func (en *Engine) Snapshot() (*EngineState, error) {
	switch {
	case en.flushRunning || en.imm != nil:
		return nil, fmt.Errorf("lsm: snapshot during a flush epoch")
	case en.w.commitInFlight || en.w.sealing || len(en.w.pending) > 0:
		return nil, fmt.Errorf("lsm: snapshot with WAL activity in flight")
	case en.compacting:
		return nil, fmt.Errorf("lsm: snapshot during a compaction")
	case en.gateClosed:
		return nil, fmt.Errorf("lsm: snapshot with the query gate closed")
	}
	s := &EngineState{
		version: append([]int64(nil), en.version...),
		durable: append([]int64(nil), en.durable...),
		deleted: append([]bool(nil), en.deleted...),

		durableRuns: append([]*run(nil), en.durableRuns...),
		nextRunID:   en.nextRunID,

		durableFloor: en.durableFloor,
		manifestSeq:  en.manifestSeq,

		walActive: en.w.active,
		walHead:   en.w.head,
		walSeq:    en.w.seq,
		walStats:  en.w.stats,

		ckptEpoch: en.ckptEpoch,
		st:        en.st,
		allocFree: append([]extent(nil), en.alloc.free...),
	}
	s.remapTotals.Remapped = en.remapTotals.Remapped
	s.remapTotals.RMWs = en.remapTotals.RMWs
	s.remapTotals.Skipped = en.remapTotals.Skipped
	for i := range en.levels {
		s.levels[i] = append([]*run(nil), en.levels[i]...)
	}
	// value-snapshot the live WAL records, remembering which one each
	// memtable cell points at
	idxBySeq := make(map[int64]int, len(en.walLive))
	s.walLive = make([]walRec, len(en.walLive))
	for i, rec := range en.walLive {
		s.walLive[i] = *rec
		idxBySeq[rec.seq] = i
	}
	s.memIdx = make(map[int64]int, len(en.mem))
	for k, e := range en.mem {
		if i, ok := idxBySeq[e.rec.seq]; ok {
			s.memIdx[k] = i
		} else {
			s.memIdx[k] = -1
		}
	}
	return s, nil
}

// Restore installs a previously captured state into en, which must be
// freshly constructed from the same Config shape. Records are re-linked
// into fresh walRec objects so the captured state stays pristine across
// any number of restores.
func (en *Engine) Restore(s *EngineState) error {
	if len(s.version) != len(en.version) {
		return fmt.Errorf("lsm: restore with %d keys into an engine with %d", len(s.version), len(en.version))
	}
	copy(en.version, s.version)
	copy(en.durable, s.durable)
	copy(en.deleted, s.deleted)

	en.durableRuns = append([]*run(nil), s.durableRuns...)
	en.nextRunID = s.nextRunID
	for i := range en.levels {
		en.levels[i] = append([]*run(nil), s.levels[i]...)
	}

	en.durableFloor = s.durableFloor
	en.manifestSeq = s.manifestSeq

	en.w.active = s.walActive
	en.w.head = s.walHead
	en.w.seq = s.walSeq
	en.w.stats = s.walStats
	en.w.pending, en.w.pendBytes = nil, 0
	en.w.nextBatch = nil
	en.w.commitInFlight = false
	en.w.inFlightDone = nil
	en.w.sealing = false

	en.walLive = make([]*walRec, len(s.walLive))
	for i := range s.walLive {
		rec := s.walLive[i] // copy
		en.walLive[i] = &rec
	}
	en.mem = make(map[int64]*memEntry, len(s.memIdx))
	for k, i := range s.memIdx {
		if i < 0 {
			continue
		}
		rec := en.walLive[i]
		en.mem[k] = &memEntry{version: rec.version, size: rec.payload, rec: rec}
	}
	en.imm = nil

	en.ckptEpoch = s.ckptEpoch
	en.remapTotals.Remapped = s.remapTotals.Remapped
	en.remapTotals.RMWs = s.remapTotals.RMWs
	en.remapTotals.Skipped = s.remapTotals.Skipped
	en.st = s.st
	en.alloc.free = append([]extent(nil), s.allocFree...)

	en.flushRunning = false
	en.flushDone = nil
	en.compacting = false
	en.compactDone = nil
	en.gateClosed = false
	en.gateOpen = nil
	en.metrics = core.NewMetrics()
	return nil
}

// SnapshotState captures the engine's mutable state as an opaque value
// (the checkin.HostEngine shape).
func (en *Engine) SnapshotState() (any, error) { return en.Snapshot() }

// RestoreState installs a state previously captured by SnapshotState.
func (en *Engine) RestoreState(s any) error {
	st, ok := s.(*EngineState)
	if !ok {
		return fmt.Errorf("lsm: restore with a foreign engine state (%T)", s)
	}
	return en.Restore(st)
}
