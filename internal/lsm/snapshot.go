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
// struct, so a field added to the engine is copied by default. The fork
// holds src's runs by reference: a run never changes while a level, the
// durable set or a fork holds it, and Fork shares src (see Share), so
// neither side refills a run the other holds once it deletes it. The
// fork's spares are runs of its own with src's spares' capacities, so it
// refills where src would. Both WAL halves' records
// are copied, the ones kept for reuse included, and the memtable relinked
// to the copies, key by key in src's order; the other half's log is empty
// outside a flush epoch. The fork
// runs under cfg: the run-phase settings (memtable bound, compaction
// policy, seed, strategy knobs) and the WAL format the strategy selects
// are its own.
//
// src must be an LSM engine and quiescent: no flush epoch (so no sealed
// memtable), no WAL activity in flight (see core.ForkBase), no compaction,
// and every memtable cell's record in the active half's log — a cell
// holding any other record could not be relinked. src is only read, once
// shared.
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
	en.spare = make([]*run, len(s.spare), cap(s.spare))
	for i, r := range s.spare {
		en.spare[i] = makeRun(cap(r.keys))
	}
	en.newest = slices.Clone(s.newest)
	en.recSize = slices.Clone(s.recSize)

	for h, l := range s.walLogs {
		en.walLogs[h] = cloneLog(l)
	}
	en.recSlab = slices.Clone(s.recSlab)
	en.mem, en.imm = s.mem.fork(), s.imm.fork()
	active := en.walLogs[s.w.Active()]
	for _, k := range s.mem.keys {
		en.mem.cells[k] = active[idxOf[s.mem.cells[k]]]
	}
	// merge scratch: content dead between compactions, room kept
	en.merged = make([]runEntry, 0, cap(s.merged))

	en.w = core.ForkGroupCommit(eng, dev, walFormat{aligned: cfg.Strategy.SectorAligned(), header: cfg.Strategy.LogHeader()}, &en.walLogs[s.w.Active()], s.w)
	base, err := core.ForkBase(&s.Base, eng, dev, cfg.HostConfig, en, en.w, en.flush, en.maybeCompact)
	if err != nil {
		return nil, err
	}
	en.Base = base
	en.compactDone = nil
	// Both now hold src's runs; a refused fork leaves src as it was.
	s.Share()
	return en, nil
}

// Share marks every run en holds shared, so that neither en nor a fork of
// it refills a run the other may still hold (see recycle): the runs of its
// levels and of its durable set, which at a rest point are the same. A
// stack forked from several goroutines at once (a snapshot template) is
// shared once, before the first fork; Fork shares an unshared src itself,
// which is the only write a fork makes to its source.
func (en *Engine) Share() {
	for _, l := range en.levels {
		share(l)
	}
	share(en.durableRuns)
}

// share marks rs shared, writing only runs that are not yet.
func share(rs []*run) {
	for _, r := range rs {
		if !r.shared {
			r.shared = true
		}
	}
}

// cloneLog returns a copy of a WAL half's log with its capacity: copies of
// its records, and of the records a flush left past its length, so the
// copy's appends reuse them as log's would (see newRec). Those form a
// prefix of the space past the length, as in a JMT (see JMT.clone).
func cloneLog(log []*walRec) []*walRec {
	all := log[:cap(log)]
	n := 0 // records: a prefix of all
	for n < len(all) && all[n] != nil {
		n++
	}
	out := make([]*walRec, len(log), cap(log))
	recs := make([]walRec, n)
	for i, rec := range all[:n] {
		recs[i] = *rec
		out[:n][i] = &recs[i]
	}
	return out
}
