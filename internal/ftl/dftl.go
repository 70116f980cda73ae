package ftl

// DFTL-style flash-resident mapping table (Config.FlashMap, -ftlmap=dftl and
// dftl-basic).
//
// The dram mode keeps the whole L2P table in controller DRAM and charges a
// probabilistic map-cache model (mapLookupCost / noteMapDirty). That hides a
// real cost of checkpoint-by-remap: every remap dirties mapping entries that
// must themselves be flushed to flash and garbage-collected. This layer
// charges that cost explicitly, after Gupta et al.'s DFTL and Dayan &
// Bonnet's translation-page GC analysis:
//
//   - The full table lives on flash as translation pages, each packing
//     PageSize/8 mapping entries (8 bytes per entry). tvpn(lun) =
//     lun / entriesPerTP addresses the translation page covering a lun.
//   - The global translation directory (GTD) maps tvpn → the physical page
//     (pid) holding the current version; it is small enough to pin in DRAM
//     (and, on the real device, in power-loss-capacitor-backed SRAM).
//   - A bounded cached mapping table (CMT) holds recently used entries in
//     DRAM. A miss on the host path charges a real flash read of the backing
//     translation page through the NAND timing path. Updates mark entries
//     dirty; dirty entries write back in batches — flushing one translation
//     page persists every dirty entry it covers (read-modify-write of the
//     old page, program of a fresh one on the translation stream).
//   - Translation blocks compete in the same victim selection as data
//     blocks: a live translation page contributes slotsPerPage to its
//     block's valid count, so cost-benefit/greedy/FIFO reclamation weighs
//     translation and data pages uniformly, and GC migration relocates live
//     translation pages exactly like live data slots (migrateLive →
//     fmMigrateTrans).
//
// Within the simulator the l2p array stays authoritative in both modes;
// flashMap tracks which entries are cached/dirty and what the flash-resident
// copy holds (stored). The coherence invariant — a non-dirty entry's flash
// copy equals the live map — is what the differential mapping oracle and
// CheckInvariants verify at every sampled crash point.
//
// Re-entrancy: writeback programs can trigger GC, and GC rebinding dirties
// CMT entries. Threshold flushes and capacity enforcement therefore run only
// at top level (fm.flushing unset and gcDepth == 0); mapping updates made by
// device-internal work accumulate and settle at the next host-path update.
// The CMT may transiently exceed its bound inside such windows — it is
// re-enforced at every host-path boundary.
//
// On top of the basic layer sit three optimizations a real controller ships
// (DESIGN.md §16); Config.CMTBasic turns them all off and reproduces the
// basic layer's behavior bit for bit:
//
//   - Page-fill on miss: a miss already charges a whole-page NAND read;
//     fillTP inserts every entry the fetched page covers (clean, bulk LRU
//     insert) instead of just the demanded lun, so one fetch yields up to
//     entriesPerTP future hits. The fill links as one LRU node, a run
//     (cmtRun): its members are set in the cached bitmap and the run's own
//     bitmap a 64-bit word at a time.
//   - Clean-first eviction (CFLRU): fmEnforceCap searches a bounded clean
//     window from the LRU tail before flushing a dirty victim's whole
//     translation page, so capacity evictions stop amplifying into flushes.
//     A run reached by the search gives up its lowest members a word at a
//     time (runEvictLow) instead of one unlink per entry.
//   - Batched remap writeback: BeginCheckpointCut/EndCheckpointCut bracket
//     the checkpoint's remap burst; threshold flushes and cap enforcement
//     are deferred across the cut and settle once at its end, coalescing the
//     remap churn into full-density page flushes instead of interleaving
//     partial ones with the cut.

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
)

// flashMap is the per-FTL DFTL state. The zero value is the disabled layer
// (dram mode); initFlashMap arms it.
type flashMap struct {
	enabled bool

	cap          int // CMT bound in entries
	entriesPerTP int // mapping entries per translation page (PageSize/8)
	numTPs       int // translation virtual pages covering the logical space

	// CMT membership and dirtiness, one bit per lun.
	cached      []uint64
	dirty       []uint64
	cachedCount int
	dirtyCount  int

	// Intrusive LRU over CMT nodes (head = most recent, -1 = nil). Node ids
	// below runBase are luns linked on their own; id runBase+r is run r.
	// The arrays reserve capacity for run nodes past the luns' ids.
	lruNext []int32
	lruPrev []int32
	lruHead int32
	lruTail int32

	// Run pool (cmtRun). Run r's member bitmap is
	// runBits[r*runStride:(r+1)*runStride]; free runs chain through
	// cmtRun.next from runFree; tpRuns[tvpn] heads the page's live runs.
	runBase   int32
	runStride int
	runs      []cmtRun
	runBits   []uint64
	runFree   int32
	tpRuns    []int32

	// stored[lun] is the entry's value as held by the flash-resident
	// translation page (-1 before the first flush covering it), 32 bits
	// wide like the live map it copies.
	stored chunkTable[int32]
	// gtd[tvpn] is the physical page id of the live translation page, -1 if
	// the tvpn has never been flushed. tpOwner is its exact inverse.
	gtd     []int64
	tpOwner []int64
	// dirtyByTP[tvpn] counts dirty cached entries per translation page —
	// the batched-writeback selector picks the page with the most.
	dirtyByTP []int32

	// fill arms page-fill on miss, cleanWindow is the CFLRU clean-first
	// search depth in entries (how many LRU-tail entries fmEnforceCap
	// examines for a clean victim before flushing a dirty one; 1 = strict
	// LRU) and cutBatch arms the checkpoint-cut remap batch. All three
	// follow basic; tests may set them one at a time.
	fill        bool
	cleanWindow int
	cutBatch    bool
	// basic is Config.CMTBasic: the run must reproduce the basic layer
	// bit-for-bit, including its defer-to-next-update cap semantics, so the
	// post-GC re-enforcement (fmAfterGC) stays off.
	basic bool

	// tpEpoch/cmdEpoch/cmdDepth implement the per-command translation-fetch
	// seen-set for the page-fill path: a tvpn stamped with the current command
	// epoch has already been charged this host command (the fetched page sits
	// in the controller's transfer buffer for the command's duration), even
	// when cap enforcement between an operation's two ranges — Remap resolves
	// source then destination — evicts the filled entries in between.
	// fmEnterCmd/fmExitCmd bracket host operations; a bare fmAccessRange call
	// (tests) opens an epoch of its own.
	tpEpoch  []uint64
	cmdEpoch uint64
	cmdDepth int

	// batch marks the checkpoint-cut remap window (BeginCheckpointCut):
	// threshold flushes and cap enforcement are deferred until the cut ends.
	batch bool

	// flushing guards the writeback path against re-entering itself when a
	// translation program triggers GC whose rebinding dirties more entries.
	flushing bool
	// oracle arms the differential mapping oracle (tests): panic on the
	// first coherence divergence instead of reporting it.
	oracle bool
	// evictOracle, when set (tests only), is the reference eviction choice
	// every fmEnforceCap decision is checked against: the victim entry, or
	// -1 for a flush. A divergence panics. Armed, run evictions go one entry
	// per decision through remove instead of runEvictLow (fmEvictRun).
	evictOracle func() int32
	// enforced, when set (tests only), is called as a cap enforcement pass
	// that started above the bound returns: fmEnforceCap (afterGC false) or
	// fmAfterGC, with the entry count it started from.
	enforced func(afterGC bool, start int)
}

// cmtRun is one page-fill's entries, linked in the LRU as a single node
// instead of one node per entry. Its members are exactly the ones fillTP
// would have pushed to the head one by one in ascending lun order, so in
// the per-entry LRU they would sit contiguously at the run's place, lowest
// lun nearest the tail. A run is always clean: a hit or write on a member
// clears its bit and links that lun on its own at the head (touch), which
// is where the per-entry LRU would move it too. Removing members never
// reorders the rest, so the run's k tail-most entries are always its k
// lowest members, and eviction from a run takes those a word at a time.
//
// Bit j of bitmap word w is lun (tpWord0(tvpn)+w)*64 + j: the words align
// with the cached bitmap's, so a translation page that does not start on
// a 64-entry boundary spans one extra word.
type cmtRun struct {
	tvpn  int32
	count int32 // members: the bitmap's popcount
	lo    int32 // bitmap word below which no member sits
	next  int32 // next run of the page, or of the free list; -1 = end
}

func (fm *flashMap) isCached(lun int64) bool { return fm.cached[lun>>6]&(1<<(uint64(lun)&63)) != 0 }
func (fm *flashMap) isDirty(lun int64) bool  { return fm.dirty[lun>>6]&(1<<(uint64(lun)&63)) != 0 }

func (fm *flashMap) lruUnlink(l int32) {
	next, prev := fm.lruNext[l], fm.lruPrev[l]
	if prev >= 0 {
		fm.lruNext[prev] = next
	} else {
		fm.lruHead = next
	}
	if next >= 0 {
		fm.lruPrev[next] = prev
	} else {
		fm.lruTail = prev
	}
	fm.lruNext[l], fm.lruPrev[l] = -1, -1
}

func (fm *flashMap) lruPushFront(l int32) {
	fm.lruPrev[l] = -1
	fm.lruNext[l] = fm.lruHead
	if fm.lruHead >= 0 {
		fm.lruPrev[fm.lruHead] = l
	} else {
		fm.lruTail = l
	}
	fm.lruHead = l
}

// touch moves cached lun to the LRU head, out of its run if it has one.
func (fm *flashMap) touch(lun int64) {
	l := int32(lun)
	if fm.lruHead == l {
		return
	}
	if r := fm.runOf(lun); r >= 0 {
		fm.dropMember(r, lun)
	} else {
		fm.lruUnlink(l)
	}
	fm.lruPushFront(l)
}

// insert adds an uncached lun to the CMT (clean; callers dirty it
// separately). Capacity is enforced by fmEnforceCap, not here.
func (fm *flashMap) insert(lun int64) {
	fm.cached[lun>>6] |= 1 << (uint64(lun) & 63)
	fm.cachedCount++
	fm.lruPushFront(int32(lun))
}

// remove evicts a clean cached lun, from its run if it has one.
func (fm *flashMap) remove(lun int64) {
	fm.cached[lun>>6] &^= 1 << (uint64(lun) & 63)
	fm.cachedCount--
	if r := fm.runOf(lun); r >= 0 {
		fm.dropMember(r, lun)
	} else {
		fm.lruUnlink(int32(lun))
	}
}

func (fm *flashMap) tvpnOf(lun int64) int { return int(lun / int64(fm.entriesPerTP)) }

// tpWord0 is the cached-bitmap word holding translation page tvpn's first
// entry: word 0 of the page's run bitmaps.
func (fm *flashMap) tpWord0(tvpn int32) int64 { return int64(tvpn) * int64(fm.entriesPerTP) >> 6 }

func (fm *flashMap) runWords(r int32) []uint64 {
	o := int(r) * fm.runStride
	return fm.runBits[o : o+fm.runStride : o+fm.runStride]
}

// runHas reports whether lun, an entry of run r's page, is one of its
// members.
func (fm *flashMap) runHas(r int32, lun int64) bool {
	w := lun>>6 - fm.tpWord0(fm.runs[r].tvpn)
	return fm.runBits[int(r)*fm.runStride+int(w)]&(1<<(uint64(lun)&63)) != 0
}

// runOf returns the run holding cached lun, or -1 when lun is linked on its
// own. The page's run list is short: one run per fill still in the CMT.
func (fm *flashMap) runOf(lun int64) int32 {
	tvpn := fm.tvpnOf(lun)
	r := fm.tpRuns[tvpn]
	if r < 0 {
		return -1
	}
	w, bit := int(lun>>6-fm.tpWord0(int32(tvpn))), uint64(1)<<(uint64(lun)&63)
	for ; r >= 0; r = fm.runs[r].next {
		if fm.runBits[int(r)*fm.runStride+w]&bit != 0 {
			return r
		}
	}
	return -1
}

// allocRun takes a run with an all-zero bitmap off the free list, growing
// the pool (and the LRU arrays' run-node ids) when it is empty. The run is
// not yet linked anywhere.
func (fm *flashMap) allocRun() int32 {
	if r := fm.runFree; r >= 0 {
		fm.runFree = fm.runs[r].next
		return r
	}
	r := int32(len(fm.runs))
	fm.runs = append(fm.runs, cmtRun{})
	for i := 0; i < fm.runStride; i++ {
		fm.runBits = append(fm.runBits, 0)
	}
	fm.lruNext = append(fm.lruNext, -1)
	fm.lruPrev = append(fm.lruPrev, -1)
	return r
}

// freeRun unlinks the empty run r from the LRU and its page's list and
// returns it to the free list.
func (fm *flashMap) freeRun(r int32) {
	fm.lruUnlink(fm.runBase + r)
	head := &fm.tpRuns[fm.runs[r].tvpn]
	for *head != r {
		head = &fm.runs[*head].next
	}
	*head = fm.runs[r].next
	fm.runs[r].next = fm.runFree
	fm.runFree = r
}

// dropMember takes lun out of run r (the caller updates the cached bit and
// links lun elsewhere if it stays cached).
func (fm *flashMap) dropMember(r int32, lun int64) {
	w := lun>>6 - fm.tpWord0(fm.runs[r].tvpn)
	fm.runBits[int(r)*fm.runStride+int(w)] &^= 1 << (uint64(lun) & 63)
	if fm.runs[r].count--; fm.runs[r].count == 0 {
		fm.freeRun(r)
	}
}

// runEvictLow evicts run r's k lowest members (0 < k <= count) a bitmap
// word at a time: the victims k successive tail-most evictions would pick.
func (fm *flashMap) runEvictLow(r int32, k int) {
	run := &fm.runs[r]
	words := fm.runWords(r)
	base := fm.tpWord0(run.tvpn)
	w := run.lo
	for left := k; left > 0; {
		m := words[w]
		if c := bits.OnesCount64(m); c <= left {
			fm.cached[base+int64(w)] &^= m
			words[w] = 0
			left -= c
			w++
			continue
		}
		rest := m
		for ; left > 0; left-- {
			rest &= rest - 1 // clear the lowest member
		}
		fm.cached[base+int64(w)] &^= m &^ rest
		words[w] = rest
	}
	run.lo = w
	run.count -= int32(k)
	fm.cachedCount -= k
	if run.count == 0 {
		fm.freeRun(r)
	}
}

// lowestMember returns run r's lowest member, testing the page's luns one
// by one: the reference path's victim, independent of runEvictLow.
func (fm *flashMap) lowestMember(r int32) int64 {
	lun := int64(fm.runs[r].tvpn) * int64(fm.entriesPerTP)
	for !fm.runHas(r, lun) {
		lun++
	}
	return lun
}

func (f *FTL) pidBlock(pid int64) int { return int(pid / int64(f.pagesPerBlk)) }
func (f *FTL) pidPage(pid int64) int  { return int(pid % int64(f.pagesPerBlk)) }

// initFlashMap arms the DFTL layer (Config.FlashMap).
func (f *FTL) initFlashMap() error {
	// Run nodes take LRU ids past the luns': at most one live run per
	// cached entry, so twice the logical units must fit an int32.
	if 2*f.totalUnits > math.MaxInt32 {
		return fmt.Errorf("ftl: flash map: %d logical units exceed the int32 LRU index space", f.totalUnits)
	}
	geo := f.array.Geometry()
	fm := &f.fm
	fm.enabled = true
	fm.entriesPerTP = geo.PageSize / 8
	fm.numTPs = int((f.totalUnits + int64(fm.entriesPerTP) - 1) / int64(fm.entriesPerTP))
	fm.cap = max(f.cfg.CMTEntries, MinCMTEntries(geo.PageSize))
	words := (f.totalUnits + 63) / 64
	fm.cached = make([]uint64, words)
	fm.dirty = make([]uint64, words)
	// Run nodes: at most one live run per cached entry, so reserving the
	// bound's worth of ids keeps pool growth from reallocating the arrays.
	runIDs := min(int64(fm.cap), f.totalUnits)
	fm.lruNext = make([]int32, f.totalUnits, f.totalUnits+runIDs)
	fm.lruPrev = make([]int32, f.totalUnits, f.totalUnits+runIDs)
	for i := range fm.lruNext {
		fm.lruNext[i], fm.lruPrev[i] = -1, -1
	}
	fm.lruHead, fm.lruTail = -1, -1
	fm.runBase = int32(f.totalUnits)
	fm.runStride = fm.entriesPerTP / 64
	if fm.entriesPerTP%64 != 0 {
		fm.runStride += 2 // an unaligned page straddles one more word
	}
	fm.runFree = -1
	fm.stored = newChunkTable[int32](f.totalUnits, -1)
	fm.gtd = make([]int64, fm.numTPs)
	for i := range fm.gtd {
		fm.gtd[i] = -1
	}
	totalPages := int64(geo.TotalPages())
	fm.tpOwner = make([]int64, totalPages)
	for i := range fm.tpOwner {
		fm.tpOwner[i] = -1
	}
	fm.dirtyByTP = make([]int32, fm.numTPs)
	fm.tpEpoch = make([]uint64, fm.numTPs)
	fm.tpRuns = make([]int32, fm.numTPs)
	for i := range fm.tpRuns {
		fm.tpRuns[i] = -1
	}
	fm.basic = f.cfg.CMTBasic
	fm.fill, fm.cleanWindow, fm.cutBatch = true, defaultCleanWindow, true
	if fm.basic {
		fm.fill, fm.cleanWindow, fm.cutBatch = false, 1, false
	}
	f.rlog.tp = newChunkTable[int32](totalPages, -1)
	return nil
}

// defaultCleanWindow is the CFLRU clean-first search depth outside
// Config.CMTBasic: deep enough that a dirty LRU tail almost always yields a
// nearby clean victim, shallow enough that hot (recent) entries are never
// evicted out from under the workload.
const defaultCleanWindow = 32

// EnableMapOracle arms the differential mapping oracle (tests only): every
// CMT miss asserts the flash-resident copy of the entry equals the live
// all-DRAM map, panicking on the first divergence. CheckInvariants performs
// the full-sweep form of the same check in dftl mode regardless.
func (f *FTL) EnableMapOracle() { f.fm.oracle = true }

// fmWrite records that lun's mapping changed: the entry becomes CMT-resident
// and dirty (a write miss needs no fetch — the flush's read-modify-write
// merges unchanged entries from the old translation page). At top level it
// then runs the batched dirty writeback and re-enforces the CMT bound; both
// are deferred across a checkpoint-cut remap batch and settle at its end.
//
// Only device-internal updates (GC rebinding, writeback-triggered dirtying)
// count toward the CMTHitsGC/CMTMissesGC origin split: the host update path
// always resolved its range through fmAccessRange first, where the lookup
// was already attributed to CMTHits/CMTMisses.
func (f *FTL) fmWrite(lun int64) {
	fm := &f.fm
	internal := fm.flushing || f.gcDepth > 0
	if fm.isCached(lun) {
		fm.touch(lun)
		if internal {
			f.stats.CMTHitsGC++
		}
	} else {
		fm.insert(lun)
		if internal {
			f.stats.CMTMissesGC++
		}
	}
	if !fm.isDirty(lun) {
		fm.dirty[lun>>6] |= 1 << (uint64(lun) & 63)
		fm.dirtyCount++
		tvpn := fm.tvpnOf(lun)
		fm.dirtyByTP[tvpn]++
	}
	if internal || fm.batch {
		return // settled at the next top-level mapping update / the cut end
	}
	if fm.dirtyCount >= f.cfg.MetaFlushEntries {
		f.fmSettleDirty(f.cfg.MetaFlushEntries, inject.SiteTransFlush)
	}
	if fm.cachedCount > fm.cap {
		f.fmEnforceCap()
	}
}

// fmSettleDirty runs the batched dirty writeback until the backlog drops
// below floor entries, densest translation page first. Caller must be at top
// level (not flushing, gcDepth == 0).
func (f *FTL) fmSettleDirty(floor int, site inject.Site) {
	fm := &f.fm
	fm.flushing = true
	for fm.dirtyCount >= floor {
		tvpn := f.fmHottestTP()
		if tvpn < 0 {
			break
		}
		f.flushTP(tvpn, site)
	}
	fm.flushing = false
}

// fmEnterCmd/fmExitCmd bracket one host command for the page-fill seen-set:
// translation-fetch charges dedup against the command epoch, and nested
// operations (CopyCached's fallback host write) share the outer command's
// epoch — a real controller holds fetched pages in its transfer buffer for
// the whole command.
func (f *FTL) fmEnterCmd() {
	fm := &f.fm
	if !fm.enabled {
		return
	}
	fm.cmdDepth++
	if fm.cmdDepth == 1 {
		fm.cmdEpoch++
	}
}

func (f *FTL) fmExitCmd() {
	if f.fm.enabled {
		f.fm.cmdDepth--
	}
}

// BeginCheckpointCut enters the remap-batch window: until EndCheckpointCut,
// mapping updates accumulate dirty entries without triggering threshold
// flushes or cap enforcement, so the checkpoint cut's remap churn coalesces
// into full-density page flushes at the cut end instead of interleaving
// partial ones. No-op outside dftl mode or with Config.CMTBasic.
func (f *FTL) BeginCheckpointCut() {
	fm := &f.fm
	if !fm.enabled || !fm.cutBatch {
		return
	}
	if fm.batch {
		panic("ftl: nested checkpoint-cut remap batch")
	}
	fm.batch = true
}

// EndCheckpointCut settles the remap-batch window: every dirty mapping entry
// writes back, densest page first, then the CMT bound is re-enforced. The
// settle is complete (not just down to the threshold) because the cut's
// mapping updates are checkpoint payload — callers order the settle before
// the checkpoint's durability barrier, making the remapped translation state
// durable with the checkpoint itself. Remap dirties long contiguous runs, so
// the deferred flushes run at full page density instead of the partial ones
// interleaved threshold writeback would have issued. Always safe to call
// (no-op when no batch is open).
func (f *FTL) EndCheckpointCut() {
	fm := &f.fm
	if !fm.enabled || !fm.batch {
		return
	}
	fm.batch = false
	if fm.flushing || f.gcDepth > 0 {
		return // settled at the next top-level mapping update
	}
	if fm.dirtyCount > 0 {
		f.fmSettleDirty(1, inject.SiteTransFlush)
	}
	if fm.cachedCount > fm.cap {
		f.fmEnforceCap()
	}
}

// fmAccessRange resolves the mapping entries for luns [first, last] through
// the CMT on the host lookup path. Each miss inserts the entry and, when the
// backing translation page lives on flash, charges a real page read —
// deduplicated per tvpn within the host command (consecutive luns share
// pages; a real controller holds the fetched page in its transfer buffer
// across the command). With page-fill on, the charged fetch also populates
// every uncached entry the page covers. The fetches join fan (nil waits for
// none), so the host operation completes only after its translation
// fetches.
func (f *FTL) fmAccessRange(first, last int64, fan *sim.FanIn) {
	fm := &f.fm
	if fm.fill && fm.cmdDepth == 0 {
		fm.cmdEpoch++ // a bare range (tests) is a command of its own
	}
	lastCharged := -1
	for lun := first; lun <= last; lun++ {
		if fm.isCached(lun) {
			fm.touch(lun)
			f.stats.CMTHits++
			continue
		}
		f.stats.CMTMisses++
		tvpn := fm.tvpnOf(lun)
		pid := fm.gtd[tvpn]
		if pid >= 0 {
			// Charge dedup: the basic layer tracks only the previous tvpn of
			// this call — enough when misses walk pages monotonically. The
			// fill path breaks that assumption (an operation's second range
			// can revisit a page cap enforcement just evicted), so it stamps
			// each fetched tvpn with the command epoch instead.
			charged := false
			if fm.fill {
				charged = fm.tpEpoch[tvpn] == fm.cmdEpoch
				fm.tpEpoch[tvpn] = fm.cmdEpoch
			} else {
				charged = tvpn == lastCharged
				lastCharged = tvpn
			}
			if !charged {
				f.stats.TransReads++
				f.stats.TransReadsHost++
				f.stats.ReadsByTag[TagMeta]++
				f.readFlash(f.pidBlock(pid), f.pidPage(pid), f.array.Geometry().PageSize, fan)
			}
		}
		if fm.oracle && fm.stored.at(lun) != f.l2p.at(lun) {
			panic(fmt.Sprintf("ftl: flash map diverged at lun %d: flash-resident entry %d, live map %d (uncached entries must match their flash copy)",
				lun, fm.stored.at(lun), f.l2p.at(lun)))
		}
		if fm.fill && pid >= 0 {
			f.fillTP(tvpn, lun)
		}
		fm.insert(lun)
	}
	if fm.cachedCount > fm.cap && f.gcDepth == 0 && !fm.flushing && !fm.batch {
		f.fmEnforceCap()
	}
}

// fillTP bulk-inserts every uncached entry of translation page tvpn except
// the demanded lun (the caller inserts it last, leaving it most-recent). The
// page was just fetched whole — a real controller decodes all of it for
// free — so the fills are clean CMT inserts: their flash copy IS the live
// map by the coherence invariant (an uncached entry is never dirty). The
// fills become one run linked at the LRU head, set a bitmap word at a time.
func (f *FTL) fillTP(tvpn int, demanded int64) {
	fm := &f.fm
	first := int64(tvpn) * int64(fm.entriesPerTP)
	last := first + int64(fm.entriesPerTP) - 1
	if last >= f.totalUnits {
		last = f.totalUnits - 1
	}
	r := fm.allocRun()
	words := fm.runWords(r)
	w0, w1 := first>>6, last>>6
	n, lo := 0, int32(-1)
	for w := w0; w <= w1; w++ {
		m := ^uint64(0)
		if w == w0 {
			m <<= uint64(first) & 63
		}
		if w == w1 {
			m &= ^uint64(0) >> (63 - uint64(last)&63)
		}
		if w == demanded>>6 {
			m &^= 1 << (uint64(demanded) & 63)
		}
		m &^= fm.cached[w]
		if m == 0 {
			continue
		}
		if lo < 0 {
			lo = int32(w - w0)
		}
		fm.cached[w] |= m
		words[w-w0] = m
		n += bits.OnesCount64(m)
	}
	if n == 0 {
		fm.runs[r].next = fm.runFree
		fm.runFree = r
		return
	}
	fm.runs[r] = cmtRun{tvpn: int32(tvpn), count: int32(n), lo: lo, next: fm.tpRuns[tvpn]}
	fm.tpRuns[tvpn] = r
	fm.cachedCount += n
	fm.lruPushFront(fm.runBase + r)
}

// fmEnforceCap evicts entries until the CMT is back within its bound,
// preferring clean victims (CFLRU): when the strict LRU tail is dirty, a
// bounded window of tail-most entries is searched for a clean one first —
// evicting clean costs nothing, while a dirty victim forces a whole
// translation-page writeback. Only when the entire window is dirty does the
// tail's page flush (batched eviction: one flush persists every dirty entry
// the page covers and usually cleans much of the window with it). With
// cleanWindow == 1 this is exactly the basic layer's strict-LRU eviction.
// Runs only at top level.
//
// The window search resumes where the previous one stopped: removing a clean
// victim found at depth d leaves the d tail-most entries dirty and in place,
// so the next search starts at the victim's LRU predecessor, still at depth
// d, instead of proving them dirty again. Between two flushes every window
// entry is examined at most once — amortised O(1) per eviction instead of
// O(cleanWindow). A flush, or GC it triggers, can reorder the LRU, so the
// cursor restarts from the tail after each one. The victim sequence is the
// from-the-tail scan's exactly (evictOracle checks it in tests).
//
// Runs are clean, so a run the search reaches holds the next victims: its
// members from the lowest up, each found at the same depth. The loop takes
// min(count, excess) of them in one runEvictLow and stops at the bound.
// The search never steps past a run, so the tail's page (flushed when the
// window is dirty) is always a lun's.
func (f *FTL) fmEnforceCap() {
	fm := &f.fm
	start := fm.cachedCount
	cur, depth := fm.lruTail, 0
	for fm.cachedCount > fm.cap {
		for cur >= 0 && cur < fm.runBase && depth < fm.cleanWindow && fm.isDirty(int64(cur)) {
			cur, depth = fm.lruPrev[cur], depth+1
		}
		victim := cur // -1 when the search ran off the LRU head: all dirty
		if depth == fm.cleanWindow {
			victim = -1 // the whole window is dirty
		}
		if fm.evictOracle != nil {
			lun := victim
			if victim >= fm.runBase {
				lun = int32(fm.lowestMember(victim - fm.runBase))
			}
			if want := fm.evictOracle(); want != lun {
				panic(fmt.Sprintf("ftl: CMT eviction diverged from window scan: resumed search %d, scan %d", lun, want))
			}
		}
		switch {
		case victim < 0:
			fm.flushing = true
			f.flushTP(fm.tvpnOf(int64(fm.lruTail)), inject.SiteTransEvict)
			fm.flushing = false
			cur, depth = fm.lruTail, 0
		case victim >= fm.runBase:
			r := victim - fm.runBase
			k := min(int(fm.runs[r].count), fm.cachedCount-fm.cap)
			if fm.evictOracle != nil {
				k = 1 // one entry per checked decision
			}
			if k == int(fm.runs[r].count) {
				cur = fm.lruPrev[victim]
			}
			f.fmEvictRun(r, k)
		default:
			cur = fm.lruPrev[victim]
			fm.remove(int64(victim))
			f.stats.CMTEvictions++
		}
	}
	if fm.enforced != nil {
		fm.enforced(false, start)
	}
}

// fmEvictRun evicts run r's k lowest members a word at a time or, in the
// reference mode the eviction oracle arms (tests), one entry at a time
// through remove, sharing no code with runEvictLow.
func (f *FTL) fmEvictRun(r int32, k int) {
	fm := &f.fm
	if fm.evictOracle != nil {
		for i := 0; i < k; i++ {
			fm.remove(fm.lowestMember(r))
		}
	} else {
		fm.runEvictLow(r, k)
	}
	f.stats.CMTEvictions += uint64(k)
}

// fmAfterGC trims the CMT back toward its bound after a collection pass
// returns to top level. Migrations insert mapping entries with enforcement
// deferred, and when the GC was triggered by a path with no later top-level
// mapping update (Sync programming buffered pages, Trim, background
// collection) the overshoot would otherwise persist until the next host
// operation — with page-fill keeping the table pinned at capacity, that is
// the steady state, not a corner. Only clean entries are evicted here: the
// post-GC instant is exactly when free space may sit at its emergency
// floor, so this path must never program a translation page (a dirty
// overshoot waits for the next top-level update, which settles through the
// normal flush machinery). Basic-layer runs keep its defer-to-next-update
// semantics bit-for-bit and skip this. A run on the way gives up its lowest
// members as in fmEnforceCap.
func (f *FTL) fmAfterGC() {
	fm := &f.fm
	if !fm.enabled || fm.basic || fm.flushing || fm.batch || f.gcDepth > 0 || fm.cachedCount <= fm.cap {
		return
	}
	start := fm.cachedCount
	for l := fm.lruTail; fm.cachedCount > fm.cap && l >= 0; {
		prev := fm.lruPrev[l]
		switch {
		case l >= fm.runBase:
			r := l - fm.runBase
			f.fmEvictRun(r, min(int(fm.runs[r].count), fm.cachedCount-fm.cap))
		case !fm.isDirty(int64(l)):
			fm.remove(int64(l))
			f.stats.CMTEvictions++
		}
		l = prev
	}
	if fm.enforced != nil {
		fm.enforced(true, start)
	}
}

// fmCheckRun verifies one live run: its count is its bitmap's popcount, no
// member lies outside its page or below its low cursor, and every member is
// cached, clean, in no other run and not linked on its own. covered
// collects the members.
func (f *FTL) fmCheckRun(r int32, covered []uint64, report func(format string, args ...any)) {
	fm := &f.fm
	run := fm.runs[r]
	first := int64(run.tvpn) * int64(fm.entriesPerTP)
	last := min(first+int64(fm.entriesPerTP), f.totalUnits) - 1
	base := fm.tpWord0(run.tvpn)
	pop := 0
	for w, m := range fm.runWords(r) {
		if m == 0 {
			continue
		}
		pop += bits.OnesCount64(m)
		if int32(w) < run.lo {
			report("run %d has members below its low cursor (word %d < %d)", r, w, run.lo)
		}
		for ; m != 0; m &= m - 1 {
			lun := (base+int64(w))<<6 + int64(bits.TrailingZeros64(m))
			switch {
			case lun < first || lun > last:
				report("run %d of page %d holds lun %d outside the page", r, run.tvpn, lun)
				continue
			case !fm.isCached(lun):
				report("run %d member lun %d is not cached", r, lun)
			case fm.isDirty(lun):
				report("run %d member lun %d is dirty", r, lun)
			}
			if covered[lun>>6]&(1<<(uint64(lun)&63)) != 0 {
				report("lun %d linked on its own and in a run", lun)
			}
			covered[lun>>6] |= 1 << (uint64(lun) & 63)
			if fm.lruNext[lun] != -1 || fm.lruPrev[lun] != -1 || fm.lruHead == int32(lun) {
				report("run %d member lun %d is linked on its own", r, lun)
			}
		}
	}
	if pop != int(run.count) || run.count <= 0 {
		report("run %d count %d but %d member bits", r, run.count, pop)
	}
}

// fmHottestTP returns the translation page with the most dirty entries
// (lowest tvpn wins ties), or -1 when nothing is dirty.
func (f *FTL) fmHottestTP() int {
	best, most := -1, int32(0)
	for tvpn, n := range f.fm.dirtyByTP {
		if n > most {
			best, most = tvpn, n
		}
	}
	return best
}

// flushTP writes back every dirty CMT entry covered by translation page
// tvpn: read-modify-write of the old flash-resident page (when one exists),
// a whole-page program on the translation stream, directory update, and the
// batch marked clean. The entries stay CMT-resident — eviction is the
// caller's decision.
func (f *FTL) flushTP(tvpn int, site inject.Site) {
	fm := &f.fm
	if tvpn < 0 || fm.dirtyByTP[tvpn] == 0 {
		return
	}
	if pid := fm.gtd[tvpn]; pid >= 0 {
		// RMW read: the new page carries the old page's unchanged entries.
		f.stats.TransReads++
		f.stats.TransReadsRMW++
		f.stats.ReadsByTag[TagMeta]++
		f.readFlash(f.pidBlock(pid), f.pidPage(pid), f.array.Geometry().PageSize, nil)
	}
	f.fmInvalidateTP(tvpn)
	f.appendTransPage(tvpn, TagMeta)
	// The program may have triggered GC whose rebinding dirtied more entries
	// of this page; they were serialized into the flush with the rest (the
	// page's content is drawn from the live map at this instant).
	first := int64(tvpn) * int64(fm.entriesPerTP)
	last := first + int64(fm.entriesPerTP) - 1
	if last >= f.totalUnits {
		last = f.totalUnits - 1
	}
	for lun := first; lun <= last && fm.dirtyByTP[tvpn] > 0; lun++ {
		if fm.isDirty(lun) {
			fm.dirty[lun>>6] &^= 1 << (uint64(lun) & 63)
			fm.dirtyCount--
			fm.dirtyByTP[tvpn]--
			fm.stored.set(lun, f.l2p.at(lun))
		}
	}
	f.stats.TransFlushes++
	f.cfg.Injector.Hit(site)
}

// fmInvalidateTP retires tvpn's current flash-resident page: directory
// detached, the page's slots invalid for GC accounting, recovery record
// cleared. A fresh page must be appended in the same event step.
func (f *FTL) fmInvalidateTP(tvpn int) {
	fm := &f.fm
	pid := fm.gtd[tvpn]
	if pid < 0 {
		return
	}
	blk := f.pidBlock(pid)
	fm.tpOwner[pid] = -1
	fm.gtd[tvpn] = -1
	f.validCount[blk] -= int32(f.slotsPerPage)
	f.rlog.clearTransPage(pid)
}

// appendTransPage programs one whole translation page for tvpn on the
// translation stream and publishes it in the directory before the frontier
// advances — GC triggered by the advance must already see the page as live.
// Returns the new physical page id.
func (f *FTL) appendTransPage(tvpn int, tag Tag) int64 {
	idx := f.rr[StreamTrans] % len(f.fronts[StreamTrans])
	f.rr[StreamTrans]++
	fr, block := f.openFrontier(StreamTrans, idx)
	pageSize := f.array.Geometry().PageSize
	for f.array.SampleProgramFail(block) {
		// The page content survives in controller DRAM (CMT + old page), so
		// nothing restages: charge the ruined page, condemn the block, and
		// retry on a fresh one.
		f.array.ProgramFailedAttempt(block, pageSize)
		f.written[block] += int32(f.slotsPerPage)
		f.noteProgramFail(block, StreamTrans, 0)
		fr.block = -1
		fr, block = f.openFrontier(StreamTrans, idx)
	}
	page, _ := f.array.ProgramPage(block, pageSize)
	pid := int64(block)*int64(f.pagesPerBlk) + int64(page)
	f.written[block] += int32(f.slotsPerPage)
	f.validCount[block] += int32(f.slotsPerPage)
	f.stats.ProgramsByTag[tag]++
	f.fm.tpOwner[pid] = int64(tvpn)
	f.fm.gtd[tvpn] = pid
	f.rlog.noteTransWrite(pid, tvpn)
	f.advanceFrontier(fr, block)
	return pid
}

// fmMigrateTrans relocates every live translation page of block b onto a
// fresh translation-stream page — the translation half of migrateLive. Data
// and translation blocks share the victim index, so a GC victim, a
// wear-level source or a retiring bad block may hold live translation pages
// alongside (or instead of) live data slots.
func (f *FTL) fmMigrateTrans(b int) {
	fm := &f.fm
	if !fm.enabled {
		return
	}
	basePid := int64(b) * int64(f.pagesPerBlk)
	pageSize := f.array.Geometry().PageSize
	for p := 0; p < f.pagesPerBlk; p++ {
		pid := basePid + int64(p)
		tvpn := fm.tpOwner[pid]
		if tvpn < 0 {
			continue
		}
		f.stats.ReadsByTag[TagGC]++
		f.stats.TransReads++
		f.stats.TransReadsGC++
		f.readFlash(b, p, pageSize, nil)
		f.fmInvalidateTP(int(tvpn))
		f.appendTransPage(int(tvpn), TagGC)
		f.stats.TransMigrated++
		f.cfg.Injector.Hit(inject.SiteTransGC)
	}
}

// fmCheckInvariants verifies the DFTL layer (called from CheckInvariants in
// dftl mode): CMT bitmap/LRU agreement, per-page dirty counters, the
// GTD ↔ tpOwner ↔ recovery-record bijection, live translation pages sitting
// on programmed pages of in-service blocks, and the coherence sweep — every
// non-dirty entry's flash-resident copy equals the live map.
func (f *FTL) fmCheckInvariants(report func(format string, args ...any)) {
	fm := &f.fm
	cachedSeen, dirtySeen := 0, 0
	for lun := int64(0); lun < f.totalUnits; lun++ {
		c, d := fm.isCached(lun), fm.isDirty(lun)
		if c {
			cachedSeen++
		}
		if d {
			dirtySeen++
			if !c {
				report("lun %d dirty but not CMT-resident", lun)
			}
		}
		if !d && fm.stored.at(lun) != f.l2p.at(lun) {
			report("flash map incoherent at lun %d: stored %d live %d (entry not dirty)",
				lun, fm.stored.at(lun), f.l2p.at(lun))
		}
		if !c && (fm.lruNext[lun] != -1 || fm.lruPrev[lun] != -1) {
			report("uncached lun %d keeps LRU links (%d, %d)", lun, fm.lruNext[lun], fm.lruPrev[lun])
		}
	}
	if cachedSeen != fm.cachedCount {
		report("CMT count %d but %d cached bits", fm.cachedCount, cachedSeen)
	}
	if dirtySeen != fm.dirtyCount {
		report("CMT dirty count %d but %d dirty bits", fm.dirtyCount, dirtySeen)
	}

	// LRU walk: exactly the cached set, consistent back-links, no cycle.
	// It counts entries, not nodes: a run stands for its members, and
	// every cached lun is linked on its own or a member of one run.
	if len(fm.lruNext) != int(fm.runBase)+len(fm.runs) || len(fm.runBits) != len(fm.runs)*fm.runStride {
		report("LRU arrays hold %d ids and %d run words for %d runs", len(fm.lruNext), len(fm.runBits), len(fm.runs))
		return
	}
	covered := make([]uint64, len(fm.cached))
	isLive := make([]bool, len(fm.runs))
	walked, nodes, liveRuns := 0, 0, 0
	prev := int32(-1)
	for l := fm.lruHead; l >= 0; l = fm.lruNext[l] {
		if fm.lruPrev[l] != prev {
			report("LRU back-link of node %d is %d, want %d", l, fm.lruPrev[l], prev)
			break
		}
		if nodes++; nodes > len(fm.lruNext) {
			report("LRU cycle")
			break
		}
		prev = l
		if l >= fm.runBase {
			r := l - fm.runBase
			if isLive[r] {
				report("run %d linked twice", r)
				break
			}
			isLive[r] = true
			liveRuns++
			walked += int(fm.runs[r].count)
			f.fmCheckRun(r, covered, report)
			continue
		}
		if !fm.isCached(int64(l)) {
			report("LRU holds uncached lun %d", l)
		}
		if covered[l>>6]&(1<<(uint64(l)&63)) != 0 {
			report("lun %d linked on its own and in a run", l)
		}
		covered[l>>6] |= 1 << (uint64(l) & 63)
		walked++
	}
	if walked != fm.cachedCount {
		report("LRU walk covers %d entries, CMT holds %d", walked, fm.cachedCount)
	} else if fm.lruTail != prev {
		report("LRU tail %d, walk ended at %d", fm.lruTail, prev)
	}
	for w := range covered {
		if covered[w] != fm.cached[w] {
			report("cached bits %#x of word %d but the LRU covers %#x", fm.cached[w], w, covered[w])
			break
		}
	}

	// Run lists: each page lists exactly its live runs; the rest are free.
	listed := 0
	for t, r := range fm.tpRuns {
		for n := 0; r >= 0; r, n = fm.runs[r].next, n+1 {
			if int(r) >= len(fm.runs) || n > len(fm.runs) {
				report("page %d run list broken at run %d", t, r)
				break
			}
			if !isLive[r] || int(fm.runs[r].tvpn) != t {
				report("page %d lists run %d, which is not one of its live runs", t, r)
			}
			listed++
		}
	}
	if listed != liveRuns {
		report("page run lists hold %d runs, the LRU links %d", listed, liveRuns)
	}
	free := 0
	for r := fm.runFree; r >= 0; r = fm.runs[r].next {
		if int(r) >= len(fm.runs) || free > len(fm.runs) {
			report("free run list broken at run %d", r)
			break
		}
		if isLive[r] || fm.runs[r].count != 0 || fm.lruNext[fm.runBase+r] != -1 || fm.lruPrev[fm.runBase+r] != -1 {
			report("free run %d is live, counts %d members or keeps LRU links", r, fm.runs[r].count)
		}
		for _, m := range fm.runWords(r) {
			if m != 0 {
				report("free run %d keeps member bits", r)
				break
			}
		}
		free++
	}
	if free+liveRuns != len(fm.runs) {
		report("%d free and %d live runs in a pool of %d", free, liveRuns, len(fm.runs))
	}

	// Per-translation-page dirty counters.
	dirtyByTP := make([]int32, fm.numTPs)
	for lun := int64(0); lun < f.totalUnits; lun++ {
		if fm.isDirty(lun) {
			dirtyByTP[fm.tvpnOf(lun)]++
		}
	}
	for t := range dirtyByTP {
		if dirtyByTP[t] != fm.dirtyByTP[t] {
			report("tvpn %d dirty counter %d but %d dirty entries", t, fm.dirtyByTP[t], dirtyByTP[t])
		}
	}

	// Directory bijection + recovery-record mirror + block placement.
	for tvpn, pid := range fm.gtd {
		if pid < 0 {
			continue
		}
		if fm.tpOwner[pid] != int64(tvpn) {
			report("gtd[%d] = pid %d but tpOwner says %d", tvpn, pid, fm.tpOwner[pid])
		}
		blk := f.pidBlock(pid)
		if f.pidPage(pid) >= f.array.ProgrammedPages(blk) {
			report("gtd[%d] = pid %d on unprogrammed page", tvpn, pid)
		}
		switch f.state[blk] {
		case blockFree, blockSpare:
			report("live translation page %d sits on block %d in state %d", pid, blk, f.state[blk])
		}
	}
	owners := 0
	for pid, tvpn := range fm.tpOwner {
		if tvpn < 0 {
			if f.rlog.tp.at(int64(pid)) != -1 {
				report("pid %d has stale translation recovery record %d", pid, f.rlog.tp.at(int64(pid)))
			}
			continue
		}
		owners++
		if fm.gtd[tvpn] != int64(pid) {
			report("tpOwner[%d] = tvpn %d but gtd points at %d", pid, tvpn, fm.gtd[tvpn])
		}
		if int64(f.rlog.tp.at(int64(pid))) != tvpn {
			report("pid %d translation recovery record %d, want tvpn %d", pid, f.rlog.tp.at(int64(pid)), tvpn)
		}
	}
	live := 0
	for _, pid := range fm.gtd {
		if pid >= 0 {
			live++
		}
	}
	if owners != live {
		report("%d pages own a tvpn but %d directory entries are live", owners, live)
	}
}
