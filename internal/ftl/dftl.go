package ftl

// DFTL-style flash-resident mapping table (Config.FlashMap, -ftlmap=dftl).
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
//   - Translation blocks live in the same victim index as data blocks: a
//     live translation page contributes slotsPerPage to its block's valid
//     count, so cost-benefit/greedy/FIFO reclamation weighs translation and
//     data pages uniformly, and GC migration relocates live translation
//     pages exactly like live data slots (migrateLive → fmMigrateTrans).
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
// On top of the basic layer sit four optimizations a real controller ships
// (DESIGN.md §16), each with an ablation knob (Config.CMTNoFill,
// Config.CMTCleanWindow, Config.CMTNoBatch — knobs off reproduce the basic
// layer's behavior bit for bit):
//
//   - Page-fill on miss: a miss already charges a whole-page NAND read;
//     fillTP inserts every entry the fetched page covers (clean, bulk LRU
//     insert) instead of just the demanded lun, so one fetch yields up to
//     entriesPerTP future hits.
//   - Clean-first eviction (CFLRU): fmEnforceCap searches a bounded clean
//     window from the LRU tail before flushing a dirty victim's whole
//     translation page, so capacity evictions stop amplifying into flushes.
//   - Batched remap writeback: BeginCheckpointCut/EndCheckpointCut bracket
//     the checkpoint's remap burst; threshold flushes and cap enforcement
//     are deferred across the cut and settle once at its end, coalescing the
//     remap churn into full-density page flushes instead of interleaving
//     partial ones with the cut.
//   - Incremental hottest-TP index: tpIndex (tpindex.go) replaces
//     fmHottestTP's O(numTPs) scan with an O(1)-maintenance bucketed
//     dirty-count index, rebuilt on Restore.

import (
	"fmt"

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

	// Intrusive LRU over cached luns (head = most recent, -1 = nil).
	lruNext []int32
	lruPrev []int32
	lruHead int32
	lruTail int32

	// stored[lun] is the entry's value as held by the flash-resident
	// translation page (-1 before the first flush covering it).
	stored []int64
	// gtd[tvpn] is the physical page id of the live translation page, -1 if
	// the tvpn has never been flushed. tpOwner is its exact inverse.
	gtd     []int64
	tpOwner []int64
	// dirtyByTP[tvpn] counts dirty cached entries per translation page —
	// the batched-writeback selector picks the page with the most.
	dirtyByTP []int32
	// tpx indexes dirtyByTP incrementally so the flush selector never scans
	// all translation pages (rebuilt from dirtyByTP on Restore).
	tpx *tpIndex

	// fill arms page-fill on miss (!Config.CMTNoFill).
	fill bool
	// cleanWindow is the resolved CFLRU clean-first search depth in entries:
	// how many LRU-tail entries fmEnforceCap examines for a clean victim
	// before flushing a dirty one. 1 = strict LRU (the basic layer).
	cleanWindow int
	// legacy is set when every remap-aware knob is at its basic-layer
	// setting (fill off, window 1, batch off): those runs must reproduce
	// the basic layer bit-for-bit, including its defer-to-next-update cap
	// semantics, so the post-GC re-enforcement (fmAfterGC) stays off.
	legacy bool

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
	// every fmEnforceCap decision is checked against: the victim, or -1 for
	// a flush. A divergence panics.
	evictOracle func() int32
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

func (fm *flashMap) touch(lun int64) {
	l := int32(lun)
	if fm.lruHead == l {
		return
	}
	fm.lruUnlink(l)
	fm.lruPushFront(l)
}

// insert adds an uncached lun to the CMT (clean; callers dirty it
// separately). Capacity is enforced by fmEnforceCap, not here.
func (fm *flashMap) insert(lun int64) {
	fm.cached[lun>>6] |= 1 << (uint64(lun) & 63)
	fm.cachedCount++
	fm.lruPushFront(int32(lun))
}

// remove evicts a clean cached lun.
func (fm *flashMap) remove(lun int64) {
	fm.cached[lun>>6] &^= 1 << (uint64(lun) & 63)
	fm.cachedCount--
	fm.lruUnlink(int32(lun))
}

func (fm *flashMap) tvpnOf(lun int64) int { return int(lun / int64(fm.entriesPerTP)) }

func (f *FTL) pidBlock(pid int64) int { return int(pid / int64(f.pagesPerBlk)) }
func (f *FTL) pidPage(pid int64) int  { return int(pid % int64(f.pagesPerBlk)) }

// initFlashMap arms the DFTL layer (Config.FlashMap).
func (f *FTL) initFlashMap() error {
	if f.totalUnits > int64(^uint32(0)>>1) {
		return fmt.Errorf("ftl: flash map: %d logical units exceed the int32 LRU index space", f.totalUnits)
	}
	geo := f.array.Geometry()
	fm := &f.fm
	fm.enabled = true
	fm.entriesPerTP = geo.PageSize / 8
	fm.numTPs = int((f.totalUnits + int64(fm.entriesPerTP) - 1) / int64(fm.entriesPerTP))
	capEntries := f.cfg.CMTEntries
	if capEntries <= 0 {
		capEntries = int(f.cfg.MapCacheBytes / 8)
	}
	// Below two translation pages' worth of entries the CMT would thrash on
	// a single flush batch; clamp to keep tiny test configs functional.
	if min := 2 * fm.entriesPerTP; capEntries < min {
		capEntries = min
	}
	fm.cap = capEntries
	words := (f.totalUnits + 63) / 64
	fm.cached = make([]uint64, words)
	fm.dirty = make([]uint64, words)
	fm.lruNext = make([]int32, f.totalUnits)
	fm.lruPrev = make([]int32, f.totalUnits)
	for i := range fm.lruNext {
		fm.lruNext[i], fm.lruPrev[i] = -1, -1
	}
	fm.lruHead, fm.lruTail = -1, -1
	fm.stored = make([]int64, f.totalUnits)
	for i := range fm.stored {
		fm.stored[i] = -1
	}
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
	fm.tpx = newTPIndex(fm.numTPs, fm.entriesPerTP)
	fm.tpEpoch = make([]uint64, fm.numTPs)
	fm.fill = !f.cfg.CMTNoFill
	fm.cleanWindow = f.cfg.CMTCleanWindow
	switch {
	case fm.cleanWindow == 0:
		fm.cleanWindow = defaultCleanWindow
	case fm.cleanWindow < 1:
		fm.cleanWindow = 1 // strict LRU: examine the tail only
	}
	fm.legacy = f.cfg.CMTNoFill && fm.cleanWindow == 1 && f.cfg.CMTNoBatch
	f.rlog.tp = make([]int64, totalPages)
	for i := range f.rlog.tp {
		f.rlog.tp[i] = -1
	}
	return nil
}

// defaultCleanWindow is the CFLRU clean-first search depth when
// Config.CMTCleanWindow is zero: deep enough that a dirty LRU tail almost
// always yields a nearby clean victim, shallow enough that hot (recent)
// entries are never evicted out from under the workload.
const defaultCleanWindow = 32

// FlashMapEnabled reports whether the DFTL layer is active.
func (f *FTL) FlashMapEnabled() bool { return f.fm.enabled }

// EnableMapOracle arms the differential mapping oracle (tests only): every
// CMT miss asserts the flash-resident copy of the entry equals the live
// all-DRAM map, panicking on the first divergence. CheckInvariants performs
// the full-sweep form of the same check in dftl mode regardless.
func (f *FTL) EnableMapOracle() { f.fm.oracle = true }

// CMTLen returns the number of CMT-resident entries (tests/introspection).
func (f *FTL) CMTLen() int { return f.fm.cachedCount }

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
		fm.tpx.markDirty(int32(tvpn))
	}
	if internal || fm.batch {
		return // settled at the next top-level mapping update / the cut end
	}
	if fm.dirtyCount >= f.metaFlushAt {
		f.fmSettleDirty(f.metaFlushAt, inject.SiteTransFlush)
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
// partial ones. No-op outside dftl mode or with Config.CMTNoBatch.
func (f *FTL) BeginCheckpointCut() {
	fm := &f.fm
	if !fm.enabled || f.cfg.CMTNoBatch {
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
// every uncached entry the page covers. With wait set the reads' futures
// append to futs so the host operation completes only after its translation
// fetches.
func (f *FTL) fmAccessRange(first, last int64, wait bool, futs []*sim.Future) []*sim.Future {
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
				if fut := f.readFlash(f.pidBlock(pid), f.pidPage(pid), f.array.Geometry().PageSize, wait); fut != nil {
					futs = append(futs, fut)
				}
			}
		}
		if fm.oracle && fm.stored[lun] != f.l2p[lun] {
			panic(fmt.Sprintf("ftl: flash map diverged at lun %d: flash-resident entry %d, live map %d (uncached entries must match their flash copy)",
				lun, fm.stored[lun], f.l2p[lun]))
		}
		if fm.fill && pid >= 0 {
			f.fillTP(tvpn, lun)
		}
		fm.insert(lun)
	}
	if fm.cachedCount > fm.cap && f.gcDepth == 0 && !fm.flushing && !fm.batch {
		f.fmEnforceCap()
	}
	return futs
}

// fillTP bulk-inserts every uncached entry of translation page tvpn except
// the demanded lun (the caller inserts it last, leaving it most-recent). The
// page was just fetched whole — a real controller decodes all of it for
// free — so the fills are clean CMT inserts: their flash copy IS the live
// map by the coherence invariant (an uncached entry is never dirty).
func (f *FTL) fillTP(tvpn int, demanded int64) {
	fm := &f.fm
	first := int64(tvpn) * int64(fm.entriesPerTP)
	last := first + int64(fm.entriesPerTP) - 1
	if last >= f.totalUnits {
		last = f.totalUnits - 1
	}
	for lun := first; lun <= last; lun++ {
		if lun != demanded && !fm.isCached(lun) {
			fm.insert(lun)
		}
	}
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
func (f *FTL) fmEnforceCap() {
	fm := &f.fm
	cur, depth := fm.lruTail, 0
	for fm.cachedCount > fm.cap {
		for cur >= 0 && depth < fm.cleanWindow && fm.isDirty(int64(cur)) {
			cur, depth = fm.lruPrev[cur], depth+1
		}
		victim := cur // -1 when the search ran off the LRU head: all dirty
		if depth == fm.cleanWindow {
			victim = -1 // the whole window is dirty
		}
		if fm.evictOracle != nil {
			if want := fm.evictOracle(); want != victim {
				panic(fmt.Sprintf("ftl: CMT eviction diverged from window scan: resumed search %d, scan %d", victim, want))
			}
		}
		if victim < 0 {
			fm.flushing = true
			f.flushTP(fm.tvpnOf(int64(fm.lruTail)), inject.SiteTransEvict)
			fm.flushing = false
			cur, depth = fm.lruTail, 0
			continue
		}
		cur = fm.lruPrev[victim]
		fm.remove(int64(victim))
		f.stats.CMTEvictions++
	}
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
// normal flush machinery). Legacy-knob runs keep the basic layer's
// defer-to-next-update semantics bit-for-bit and skip this.
func (f *FTL) fmAfterGC() {
	fm := &f.fm
	if !fm.enabled || fm.legacy || fm.flushing || fm.batch || f.gcDepth > 0 {
		return
	}
	for l := fm.lruTail; fm.cachedCount > fm.cap && l >= 0; {
		prev := fm.lruPrev[l]
		if !fm.isDirty(int64(l)) {
			fm.remove(int64(l))
			f.stats.CMTEvictions++
		}
		l = prev
	}
}

// fmHottestTP returns the translation page with the most dirty entries
// (lowest tvpn wins ties), or -1 when nothing is dirty. Backed by the
// incremental tpIndex — no O(numTPs) scan.
func (f *FTL) fmHottestTP() int {
	return f.fm.tpx.hottest(f.fm.dirtyByTP)
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
		f.readFlash(f.pidBlock(pid), f.pidPage(pid), f.array.Geometry().PageSize, false)
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
			fm.stored[lun] = f.l2p[lun]
		}
	}
	fm.tpx.markDirty(int32(tvpn))
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
	if f.vix.linked[blk] {
		f.vixMarkDirty(blk)
	}
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
	page := f.array.ProgramPageNoWait(block, pageSize)
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
		f.readFlash(b, p, pageSize, false)
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
		if !d && fm.stored[lun] != f.l2p[lun] {
			report("flash map incoherent at lun %d: stored %d live %d (entry not dirty)",
				lun, fm.stored[lun], f.l2p[lun])
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
	walked := 0
	prev := int32(-1)
	for l := fm.lruHead; l >= 0; l = fm.lruNext[l] {
		if fm.lruPrev[l] != prev {
			report("LRU back-link of lun %d is %d, want %d", l, fm.lruPrev[l], prev)
			break
		}
		if !fm.isCached(int64(l)) {
			report("LRU holds uncached lun %d", l)
		}
		walked++
		if walked > fm.cachedCount {
			report("LRU cycle or length > %d cached entries", fm.cachedCount)
			break
		}
		prev = l
	}
	if walked != fm.cachedCount {
		report("LRU walk covers %d entries, CMT holds %d", walked, fm.cachedCount)
	} else if fm.lruTail != prev {
		report("LRU tail %d, walk ended at %d", fm.lruTail, prev)
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
	fm.tpx.check(fm.dirtyByTP, report)

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
			if f.rlog.tp[pid] != -1 {
				report("pid %d has stale translation recovery record %d", pid, f.rlog.tp[pid])
			}
			continue
		}
		owners++
		if fm.gtd[tvpn] != int64(pid) {
			report("tpOwner[%d] = tvpn %d but gtd points at %d", pid, tvpn, fm.gtd[tvpn])
		}
		if f.rlog.tp[pid] != tvpn {
			report("pid %d translation recovery record %d, want tvpn %d", pid, f.rlog.tp[pid], tvpn)
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
