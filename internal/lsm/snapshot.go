package lsm

import (
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
)

// Fork returns an LSM engine on eng over dev (forks of src's kernel and
// device) whose state is a deep copy of src's, an LSM engine of the same
// shape: the base's state, the level hierarchy and durable run set, the
// manifest, the WAL with the memtable, the counters, the allocator's free
// list and the newest-version index. It starts from a copy of src's
// struct, so a field added to the engine is copied by default. Runs are
// immutable after construction, so the fork shares them with src — it can
// never observe a mutation because none happen. The active WAL half's
// records are copied and the memtable relinked to the copies, key by key
// in src's order; the other half is empty outside a flush epoch. The fork
// runs under cfg: the run-phase settings (memtable bound, compaction
// policy, seed, strategy knobs) and the WAL format the strategy selects
// are its own.
//
// src must be an LSM engine and quiescent: no flush epoch (so no sealed
// memtable), no WAL activity in flight (see core.ForkBase), no compaction,
// and every memtable cell's record in the active half's log — a cell
// holding any other record could not be relinked. src is only read.
func Fork(eng *sim.Engine, dev *ssd.Device, cfg Config, src core.Host) (*Engine, error) {
	s, ok := src.(*Engine)
	if !ok {
		return nil, fmt.Errorf("lsm: fork of a foreign engine (%T)", src)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s.compacting {
		return nil, fmt.Errorf("lsm: snapshot during a compaction")
	}
	log := s.walLogs[s.w.Active()]
	idxOf := make(map[*walRec]int, len(log))
	for i, rec := range log {
		idxOf[rec] = i
	}
	for _, k := range s.mem.keys {
		rec := s.mem.cells[k]
		if _, ok := idxOf[rec]; !ok {
			return nil, fmt.Errorf("lsm: snapshot: memtable cell for key %d holds WAL record %d, not in the active half's log", k, rec.seq)
		}
	}

	en := new(Engine)
	*en = *s
	en.cfg, en.memLimit = cfg, cfg.MemtableEntries
	en.director = newDirector(cfg.Policy, cfg.JournalHalfBytes)
	// Tables keep their capacity, so the fork grows them exactly when src
	// would.
	alloc := *s.alloc
	alloc.free = append(make([]extent, 0, cap(s.alloc.free)), s.alloc.free...)
	en.alloc = &alloc
	for i, l := range s.levels {
		en.levels[i] = append(make([]*run, 0, cap(l)), l...)
	}
	en.durableRuns = append(make([]*run, 0, cap(s.durableRuns)), s.durableRuns...)
	en.newest = slices.Clone(s.newest)
	en.recSize = slices.Clone(s.recSize)

	for h, l := range s.walLogs {
		en.walLogs[h] = make([]*walRec, 0, cap(l))
	}
	active := &en.walLogs[s.w.Active()]
	recs := make([]walRec, len(log))
	for i, rec := range log {
		recs[i] = *rec
		*active = append(*active, &recs[i])
	}
	en.recSlab = slices.Clone(s.recSlab)
	en.mem, en.imm = s.mem.fork(), s.imm.fork()
	for _, k := range s.mem.keys {
		en.mem.cells[k] = &recs[idxOf[s.mem.cells[k]]]
	}

	en.w = core.ForkGroupCommit(eng, dev, walFormat{aligned: cfg.Strategy.SectorAligned(), header: cfg.Strategy.LogHeader()}, active, s.w)
	base, err := core.ForkBase(&s.Base, eng, dev, cfg.HostConfig, en, en.w, en.flush, en.maybeCompact)
	if err != nil {
		return nil, err
	}
	en.Base = base
	en.compactDone = nil
	return en, nil
}
