package ftl

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/sim"
)

// FTLState is a deep copy of the translation layer's mutable state at a
// quiescent instant: the full L2P/P2L mapping with reference counts, block
// lifecycle and free pool, per-stream write frontiers (including buffered
// partial-page slots — genuine state: a stream tail can legitimately sit in
// the controller buffer across a quiescent point), the map-metadata cost
// model, the persistent recovery log and the counters.
type FTLState struct {
	l2p         []int64
	refcnt      []uint8
	rev         []int64
	revOverflow slotLists[int64]

	state      []blockState
	validCount []int32
	written    []int32
	closedSeq  []int64
	closeClock int64

	freeByDie [][]int
	freeCount int

	spareByDie     [][]int
	spareCount     int
	badCount       int
	readOnly       bool
	pendingRetire  []int
	pendingReclaim []int

	fronts [numStreams][]frontier
	rr     [numStreams]int

	dirtyMapEntries int
	mapMissAccum    float64
	mapEngine       sim.FIFOResource

	rlogSeq     uint64
	rlogOOB     []oobRecord
	rlogAliases slotLists[oobRecord]
	rlogTrims   []trimExtent
	rlogTP      []int64

	// DFTL layer (nil/zero in dram mode).
	fmCached      []uint64
	fmDirty       []uint64
	fmCachedCount int
	fmDirtyCount  int
	fmLruNext     []int32
	fmLruPrev     []int32
	fmLruHead     int32
	fmLruTail     int32
	fmRuns        []cmtRun
	fmRunBits     []uint64
	fmRunFree     int32
	fmTPRuns      []int32
	fmStored      []int64
	fmGtd         []int64
	fmTpOwner     []int64
	fmDirtyByTP   []int32

	stats Stats
}

// Snapshot captures the FTL's mutable state. Every program must have
// completed (the kernel queue is drained at the capture point), so the
// program logs are not part of the state; buffered partial pages are.
// GC must not be mid-flight.
func (f *FTL) Snapshot() (*FTLState, error) {
	if f.gcDepth != 0 {
		return nil, fmt.Errorf("ftl: snapshot during garbage collection (depth %d)", f.gcDepth)
	}
	for s, l := range f.programs {
		if !f.eng.Passed(l.latest.at, l.latest.seq) {
			return nil, fmt.Errorf("ftl: snapshot with incomplete program on stream %d (FTL not quiescent)", s)
		}
	}
	st := &FTLState{
		l2p:         append([]int64(nil), f.l2p...),
		refcnt:      append([]uint8(nil), f.refcnt...),
		rev:         append([]int64(nil), f.rev...),
		revOverflow: f.revOverflow.capture(),

		state:      append([]blockState(nil), f.state...),
		validCount: append([]int32(nil), f.validCount...),
		written:    append([]int32(nil), f.written...),
		closedSeq:  append([]int64(nil), f.closedSeq...),
		closeClock: f.closeClock,

		freeByDie: make([][]int, len(f.freeByDie)),
		freeCount: f.freeCount,

		spareByDie:     make([][]int, len(f.spareByDie)),
		spareCount:     f.spareCount,
		badCount:       f.badCount,
		readOnly:       f.readOnly,
		pendingRetire:  append([]int(nil), f.pendingRetire...),
		pendingReclaim: append([]int(nil), f.pendingReclaim...),

		rr: f.rr,

		dirtyMapEntries: f.dirtyMapEntries,
		mapMissAccum:    f.mapMissAccum,
		mapEngine:       f.mapEngine,

		rlogSeq:     f.rlog.seq,
		rlogOOB:     append([]oobRecord(nil), f.rlog.oob...),
		rlogAliases: f.rlog.aliases.capture(),
		rlogTrims:   append([]trimExtent(nil), f.rlog.trims...),

		stats: f.stats,
	}
	for i, blocks := range f.freeByDie {
		st.freeByDie[i] = append([]int(nil), blocks...)
	}
	for i, blocks := range f.spareByDie {
		st.spareByDie[i] = append([]int(nil), blocks...)
	}
	for s := Stream(0); s < numStreams; s++ {
		st.fronts[s] = make([]frontier, len(f.fronts[s]))
		for i, fr := range f.fronts[s] {
			st.fronts[s][i] = frontier{
				block:    fr.block,
				fillLSNs: append([]int64(nil), fr.fillLSNs...),
				fillTag:  fr.fillTag,
			}
		}
	}
	if f.fm.enabled {
		if f.fm.flushing {
			return nil, fmt.Errorf("ftl: snapshot during translation-page writeback")
		}
		if f.fm.batch {
			return nil, fmt.Errorf("ftl: snapshot inside a checkpoint-cut remap batch")
		}
		st.rlogTP = append([]int64(nil), f.rlog.tp...)
		st.fmCached = append([]uint64(nil), f.fm.cached...)
		st.fmDirty = append([]uint64(nil), f.fm.dirty...)
		st.fmCachedCount = f.fm.cachedCount
		st.fmDirtyCount = f.fm.dirtyCount
		st.fmLruNext = append([]int32(nil), f.fm.lruNext...)
		st.fmLruPrev = append([]int32(nil), f.fm.lruPrev...)
		st.fmLruHead = f.fm.lruHead
		st.fmLruTail = f.fm.lruTail
		st.fmRuns = append([]cmtRun(nil), f.fm.runs...)
		st.fmRunBits = append([]uint64(nil), f.fm.runBits...)
		st.fmRunFree = f.fm.runFree
		st.fmTPRuns = append([]int32(nil), f.fm.tpRuns...)
		st.fmStored = append([]int64(nil), f.fm.stored...)
		st.fmGtd = append([]int64(nil), f.fm.gtd...)
		st.fmTpOwner = append([]int64(nil), f.fm.tpOwner...)
		st.fmDirtyByTP = append([]int32(nil), f.fm.dirtyByTP...)
	}
	return st, nil
}

// Restore installs a previously captured state into f, which must be freshly
// constructed over the same geometry and Config. Every slice is copied again
// so the state stays pristine for further restores, and per-fork mutation
// never reaches a sibling.
func (f *FTL) Restore(st *FTLState) error {
	if len(st.l2p) != len(f.l2p) || len(st.refcnt) != len(f.refcnt) || len(st.state) != len(f.state) {
		return fmt.Errorf("ftl: restore shape mismatch (%d units / %d slots / %d blocks vs %d / %d / %d)",
			len(st.l2p), len(st.refcnt), len(st.state), len(f.l2p), len(f.refcnt), len(f.state))
	}
	copy(f.l2p, st.l2p)
	copy(f.refcnt, st.refcnt)
	copy(f.rev, st.rev)
	f.revOverflow.restore(st.revOverflow)

	copy(f.state, st.state)
	copy(f.validCount, st.validCount)
	copy(f.written, st.written)
	copy(f.closedSeq, st.closedSeq)
	f.closeClock = st.closeClock

	for i, blocks := range st.freeByDie {
		f.freeByDie[i] = append(f.freeByDie[i][:0], blocks...)
	}
	f.freeCount = st.freeCount

	for i, blocks := range st.spareByDie {
		f.spareByDie[i] = append(f.spareByDie[i][:0], blocks...)
	}
	f.spareCount = st.spareCount
	f.badCount = st.badCount
	f.readOnly = st.readOnly
	f.pendingRetire = append(f.pendingRetire[:0], st.pendingRetire...)
	f.pendingReclaim = append(f.pendingReclaim[:0], st.pendingReclaim...)
	for i := range f.pendingMark {
		f.pendingMark[i] = 0
	}
	for _, b := range f.pendingRetire {
		f.pendingMark[b] |= pendRetire
	}
	for _, b := range f.pendingReclaim {
		f.pendingMark[b] |= pendReclaim
	}

	for s := Stream(0); s < numStreams; s++ {
		for i, fr := range st.fronts[s] {
			f.fronts[s][i] = frontier{
				block:    fr.block,
				fillLSNs: append([]int64(nil), fr.fillLSNs...),
				fillTag:  fr.fillTag,
			}
		}
		f.programs[s] = progLog{}
	}
	f.rr = st.rr

	f.dirtyMapEntries = st.dirtyMapEntries
	f.mapMissAccum = st.mapMissAccum
	f.mapEngine = st.mapEngine

	f.rlog.seq = st.rlogSeq
	copy(f.rlog.oob, st.rlogOOB)
	f.rlog.aliases.restore(st.rlogAliases)
	f.rlog.trims = append(f.rlog.trims[:0], st.rlogTrims...)

	if f.fm.enabled {
		if st.fmCached == nil {
			return fmt.Errorf("ftl: restore of a dram-mode snapshot into a dftl-mode FTL")
		}
		copy(f.rlog.tp, st.rlogTP)
		copy(f.fm.cached, st.fmCached)
		copy(f.fm.dirty, st.fmDirty)
		f.fm.cachedCount = st.fmCachedCount
		f.fm.dirtyCount = st.fmDirtyCount
		// The LRU arrays carry the run nodes' ids past the luns', so their
		// length follows the restored run pool.
		f.fm.lruNext = append(f.fm.lruNext[:0], st.fmLruNext...)
		f.fm.lruPrev = append(f.fm.lruPrev[:0], st.fmLruPrev...)
		f.fm.lruHead = st.fmLruHead
		f.fm.lruTail = st.fmLruTail
		f.fm.runs = append(f.fm.runs[:0], st.fmRuns...)
		f.fm.runBits = append(f.fm.runBits[:0], st.fmRunBits...)
		f.fm.runFree = st.fmRunFree
		copy(f.fm.tpRuns, st.fmTPRuns)
		copy(f.fm.stored, st.fmStored)
		copy(f.fm.gtd, st.fmGtd)
		copy(f.fm.tpOwner, st.fmTpOwner)
		copy(f.fm.dirtyByTP, st.fmDirtyByTP)
		f.fm.flushing = false
		f.fm.batch = false
		// The page-fill seen-set is per-command scratch: no command is in
		// flight at a rest point, and the first command after restore opens a
		// fresh epoch (1) that no zeroed stamp can collide with — exactly as
		// the direct path's next epoch exceeds every stamp it ever wrote.
		f.fm.cmdEpoch = 0
		f.fm.cmdDepth = 0
		for i := range f.fm.tpEpoch {
			f.fm.tpEpoch[i] = 0
		}
	}

	f.gcDepth = 0
	f.stats = st.stats

	// Derived structures: no collection is in flight at a rest point, and
	// the partial-page markers follow from the restored frontiers.
	f.gcVictim = -1
	for s := Stream(0); s < numStreams; s++ {
		f.partial[s] = -1
		for i := range f.fronts[s] {
			if len(f.fronts[s][i].fillLSNs) > 0 {
				f.partial[s] = i
				break
			}
		}
	}
	return nil
}
