package ftl

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// persistTPs force-flushes every translation page so the whole mapping has a
// flash-resident copy (gtd populated) and every CMT entry is clean.
func persistTPs(t testing.TB, e interface{ Run() }, f *FTL) {
	t.Helper()
	f.fm.flushing = true
	for tvpn := 0; tvpn < f.fm.numTPs; tvpn++ {
		f.flushTP(tvpn, inject.SiteTransFlush)
	}
	f.fm.flushing = false
	f.Sync(StreamData, TagHostData)
	e.Run()
}

// uncacheClean drops every clean entry from the CMT, forcing the next access
// to re-miss through the translation-page fetch path.
func uncacheClean(f *FTL) {
	for lun := int64(0); lun < f.totalUnits; lun++ {
		if f.fm.isCached(lun) && !f.fm.isDirty(lun) {
			f.fm.remove(lun)
		}
	}
}

// TestTransFetchChargeDedup is the double-charge regression test for the
// translation-fetch dedup in fmAccessRange.
//
// The legacy dedup tracks only the previous tvpn of one range walk, so a
// two-range command (Remap resolves its source range, then its destination
// range) charges the same translation page twice when both ranges land on
// it. With page-fill on, the per-command epoch seen-set charges it once — a
// real controller holds the fetched page in its transfer buffer for the
// whole command — even when cap enforcement evicts the filled entries
// between the ranges. With page-fill off the legacy single-walk dedup is
// kept bit-for-bit (byte-identity with the pre-optimization build).
func TestTransFetchChargeDedup(t *testing.T) {
	build := func(t *testing.T, noFill bool) (*FTL, func()) {
		cfg := dftlCfg()
		cfg.CMTNoFill = noFill
		cfg.MetaFlushEntries = 1 << 30 // no threshold flushes during the probe
		e, _, f := newDFTL(t, cfg)
		unit := int64(f.unit)
		// Map a handful of luns on translation page 0 and persist it.
		for lun := int64(0); lun < 8; lun++ {
			f.Write(lun*unit, unit, TagHostData, StreamData)
		}
		f.Sync(StreamData, TagHostData)
		e.Run()
		persistTPs(t, e, f)
		uncacheClean(f)
		return f, func() { e.Run() }
	}

	t.Run("remap-same-tp-fill-on", func(t *testing.T) {
		f, run := build(t, false)
		unit := int64(f.unit)
		before := f.stats.TransReadsHost
		f.Remap(0, 4*unit, unit) // src lun 0, dst lun 4: both on tvpn 0
		run()
		if got := f.stats.TransReadsHost - before; got != 1 {
			t.Fatalf("fill-on same-page remap charged %d translation fetches, want 1", got)
		}
	})

	t.Run("remap-same-tp-legacy", func(t *testing.T) {
		f, run := build(t, true)
		unit := int64(f.unit)
		before := f.stats.TransReadsHost
		f.Remap(0, 4*unit, unit)
		run()
		// Documented legacy behavior, preserved for byte-identity: each
		// range walk resets the dedup, so the shared page charges twice.
		if got := f.stats.TransReadsHost - before; got != 2 {
			t.Fatalf("fill-off same-page remap charged %d translation fetches, want 2 (legacy parity)", got)
		}
	})

	t.Run("mid-command-evict-fill-on", func(t *testing.T) {
		f, run := build(t, false)
		before := f.stats.TransReadsHost
		// One command whose second range revisits a page evicted after the
		// first range fetched it — the epoch stamp must suppress the
		// second charge.
		f.fmEnterCmd()
		f.fmAccessRange(0, 0, false, nil)
		uncacheClean(f) // simulate cap enforcement between the ranges
		f.fmAccessRange(1, 1, false, nil)
		f.fmExitCmd()
		run()
		if got := f.stats.TransReadsHost - before; got != 1 {
			t.Fatalf("mid-command re-fetch charged %d, want 1 (epoch seen-set)", got)
		}
		// A fresh command starts a fresh epoch: the page charges again.
		uncacheClean(f)
		f.fmEnterCmd()
		f.fmAccessRange(2, 2, false, nil)
		f.fmExitCmd()
		run()
		if got := f.stats.TransReadsHost - before; got != 2 {
			t.Fatalf("next command charged %d total, want 2 (new epoch)", got)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCleanFirstEvictionReducesFlushes pins the CFLRU claim: with a clean
// search window, capacity evictions stop amplifying into translation-page
// writebacks. The same mixed read/write workload runs with a strict-LRU
// window (1) and the default window; the windowed run must evict clean
// entries (no flush) strictly more often and flush strictly less.
func TestCleanFirstEvictionReducesFlushes(t *testing.T) {
	run := func(window int) (flushes, evictions uint64) {
		cfg := dftlCfg()
		cfg.CMTCleanWindow = window
		cfg.MetaFlushEntries = 1 << 30 // isolate eviction-driven flushes
		e, _, f := newDFTL(t, cfg)
		unit := int64(f.unit)
		luns := f.logicalBytes / unit
		rng := benchRNG(7)
		for i := 0; i < 4096; i++ {
			r := rng.next()
			lun := int64(r>>8) % luns
			if r%4 == 0 {
				f.Write(lun*unit, unit, TagHostData, StreamData)
			} else {
				f.Read(lun*unit, unit)
			}
			if i%64 == 63 {
				f.Sync(StreamData, TagHostData)
				e.Run()
			}
		}
		f.Sync(StreamData, TagHostData)
		e.Run()
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return f.stats.TransFlushes, f.stats.CMTEvictions
	}
	strictFlushes, strictEvict := run(1)
	cflruFlushes, cflruEvict := run(0) // default window
	if cflruFlushes >= strictFlushes {
		t.Fatalf("clean-first eviction did not reduce flushes: window=default %d, strict LRU %d",
			cflruFlushes, strictFlushes)
	}
	if cflruEvict <= strictEvict {
		t.Fatalf("clean-first eviction did not shift work to clean victims: evictions window=default %d, strict LRU %d",
			cflruEvict, strictEvict)
	}
}

// TestRemapBatchCoalesces pins the checkpoint-cut batching claim: a remap
// burst inside a Begin/EndCheckpointCut window must write back strictly
// fewer translation pages than the same burst with interleaved threshold
// writebacks, and the cut-end settle must leave no dirty entries.
func TestRemapBatchCoalesces(t *testing.T) {
	run := func(noBatch bool) (flushes uint64, dirtyAfter int) {
		cfg := dftlCfg() // MetaFlushEntries 96: the burst crosses it many times
		cfg.CMTNoBatch = noBatch
		e, _, f := newDFTL(t, cfg)
		unit := int64(f.unit)
		luns := f.logicalBytes / unit
		for lun := int64(0); lun < luns; lun++ {
			f.Write(lun*unit, unit, TagHostData, StreamData)
			if lun%64 == 63 {
				f.Sync(StreamData, TagHostData)
				e.Run()
			}
		}
		f.Sync(StreamData, TagHostData)
		e.Run()
		before := f.stats.TransFlushes
		f.BeginCheckpointCut()
		for lun := int64(0); lun < luns/2; lun++ {
			f.Remap(lun*unit, (luns/2+lun)*unit, unit)
		}
		f.EndCheckpointCut()
		f.Sync(StreamData, TagHostData)
		e.Run()
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return f.stats.TransFlushes - before, f.fm.dirtyCount
	}
	batched, dirtyAfter := run(false)
	interleaved, _ := run(true)
	if batched >= interleaved {
		t.Fatalf("remap batch did not coalesce writebacks: batched %d, interleaved %d", batched, interleaved)
	}
	if dirtyAfter != 0 {
		t.Fatalf("EndCheckpointCut left %d dirty entries; the cut settle must be complete", dirtyAfter)
	}
}

// TestDFTLSteadyStateAllocs pins the new mapping-machinery paths to zero
// steady-state allocations: a page-fill miss burst (translation fetch charge
// + bulk clean insert of every covered entry) followed by clean-first
// capacity eviction of a whole page's worth of entries allocates nothing —
// the epoch tables, the LRU arrays and the bucketed dirty index all run on
// preallocated storage. (Dirty flush paths pay the program future and are
// measured separately, as in TestFTLSteadyStateAllocs.)
func TestDFTLSteadyStateAllocs(t *testing.T) {
	cfg := dftlCfg()
	cfg.MetaFlushEntries = 1 << 30
	e, _, f := newDFTL(t, cfg)
	unit := int64(f.unit)
	luns := f.logicalBytes / unit
	for lun := int64(0); lun < luns; lun++ {
		f.Write(lun*unit, unit, TagHostData, StreamData)
		if lun%64 == 63 {
			f.Sync(StreamData, TagHostData)
			e.Run()
		}
	}
	f.Sync(StreamData, TagHostData)
	e.Run()
	persistTPs(t, e, f)
	uncacheClean(f)

	epp := int64(f.fm.entriesPerTP)
	missFillEvict := func() {
		// Three demand misses, one per translation page: each fetch fills
		// the page's span; the third pushes the CMT over its bound and
		// clean-first eviction trims it back with pure removals.
		f.fmEnterCmd()
		f.fmAccessRange(0, 0, false, nil)
		f.fmAccessRange(epp, epp, false, nil)
		f.fmAccessRange(2*epp, 2*epp, false, nil)
		f.fmExitCmd()
		e.Run()
		uncacheClean(f)
	}
	missFillEvict() // warm the event heap and scratch capacities
	if n := testing.AllocsPerRun(100, missFillEvict); n != 0 {
		t.Fatalf("page-fill + clean-first eviction path allocates %.2f/op, want 0", n)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// dirtyTailFTL builds clean-first eviction's worst case: a CMT at its bound
// whose LRU tail is a run of cleanWindow-1 dirty entries, which nothing
// touches again, so it stays pinned at the tail. step issues one page-fill
// miss on the next translation page in rotation (a whole page of clean
// inserts), and the cap enforcement that follows evicts a page's worth of
// clean entries from just behind the dirty run, never flushing. A search
// that restarted from the tail for every victim would walk the dirty run
// once per eviction.
func dirtyTailFTL(tb testing.TB) (*FTL, func()) {
	tb.Helper()
	cfg := dftlCfg()
	cfg.CMTEntries = 2048
	cfg.MetaFlushEntries = 1 << 30 // no threshold flushes
	e := sim.NewEngine()
	arr, err := nand.New(e, dftlWideGeo(), fastTim())
	if err != nil {
		tb.Fatal(err)
	}
	f, err := New(e, arr, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	unit := int64(f.unit)
	epp := int64(f.fm.entriesPerTP)
	numTPs := f.fm.numTPs
	// One mapped lun per translation page, then persist them all: every
	// page has a flash-resident copy, so every miss charges a fetch and
	// page-fills.
	for tvpn := 0; tvpn < numTPs; tvpn++ {
		f.Write(int64(tvpn)*epp*unit, unit, TagHostData, StreamData)
	}
	f.Sync(StreamData, TagHostData)
	e.Run()
	persistTPs(tb, e, f)
	uncacheClean(f)

	// The dirty run: the first entries into an empty CMT end up at its tail.
	fm := &f.fm
	fm.flushing = true
	for lun := int64(1); lun < int64(fm.cleanWindow); lun++ {
		f.fmWrite(lun)
	}
	fm.flushing = false

	tvpn := 0
	step := func() {
		tvpn = tvpn%(numTPs-1) + 1 // every page but the dirty run's
		lun := int64(tvpn) * epp
		f.fmEnterCmd()
		f.fmAccessRange(lun, lun, false, nil)
		f.fmExitCmd()
		e.Run()
	}
	for fm.cachedCount < fm.cap { // fill to the bound
		step()
	}
	return f, step
}

// TestDFTLDirtyTailAllocs pins the dirty-tail eviction path: page-fill
// misses under a pinned dirty LRU tail evict clean entries only — no flush,
// the dirty run stays at the tail — and allocate nothing.
func TestDFTLDirtyTailAllocs(t *testing.T) {
	f, step := dirtyTailFTL(t)
	step() // warm the event heap
	flushes, evictions := f.stats.TransFlushes, f.stats.CMTEvictions
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("dirty-tail page-fill + eviction path allocates %.2f/op, want 0", n)
	}
	if f.stats.TransFlushes != flushes {
		t.Fatalf("dirty-tail evictions flushed %d translation pages, want 0", f.stats.TransFlushes-flushes)
	}
	if f.stats.CMTEvictions == evictions {
		t.Fatal("no evictions: the path under test never ran")
	}
	depth := 0
	for l := f.fm.lruTail; l >= 0 && f.fm.isDirty(int64(l)); l = f.fm.lruPrev[l] {
		depth++
	}
	if depth != f.fm.cleanWindow-1 {
		t.Fatalf("dirty run at the LRU tail is %d entries, want %d", depth, f.fm.cleanWindow-1)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDFTLHostPath drives the dftl host lookup path with a skewed
// hit/miss/evict/flush mix: hot hits stay CMT-resident, cold reads miss and
// page-fill, writes dirty entries toward the writeback threshold, and the
// bounded CMT forces steady capacity eviction. ns/op and allocs/op here are
// the evidence that the incremental dirty index removed the per-flush
// O(numTPs) scan from the hot path. dirty-tail isolates page-fill misses
// under a pinned dirty LRU tail (dirtyTailFTL): the resumed clean-first
// search's case.
func BenchmarkDFTLHostPath(b *testing.B) {
	b.Run("opt", func(b *testing.B) { benchDFTLHostPath(b, dftlCfg()) })
	b.Run("dirty-tail", func(b *testing.B) {
		_, step := dirtyTailFTL(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
	b.Run("legacy", func(b *testing.B) {
		cfg := dftlCfg()
		cfg.CMTNoFill = true
		cfg.CMTCleanWindow = 1
		cfg.CMTNoBatch = true
		benchDFTLHostPath(b, cfg)
	})
}

func benchDFTLHostPath(b *testing.B, cfg Config) {
	e, _, f := newDFTL(b, cfg)
	unit := int64(f.unit)
	luns := f.logicalBytes / unit
	hot := luns/8 + 1
	// Map the whole space and persist every translation page so cold
	// misses charge real fetches, then trim the upper three quarters: the
	// flash pool keeps enough slack that steady-state GC stays cheap at
	// any knob setting (this is a host-path cost bench, not a GC stress),
	// while the trimmed luns still carry flash-resident (unmapped) entries
	// the cold read path misses through.
	for lun := int64(0); lun < luns; lun++ {
		f.Write(lun*unit, unit, TagHostData, StreamData)
		if lun%64 == 63 {
			f.Sync(StreamData, TagHostData)
			e.Run()
		}
	}
	f.Sync(StreamData, TagHostData)
	e.Run()
	f.Trim(luns/4*unit, (luns-luns/4)*unit)
	f.Sync(StreamData, TagHostData)
	e.Run()
	persistTPs(b, e, f)

	rng := benchRNG(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.next()
		var lun int64
		if r%4 != 0 {
			lun = int64(r>>8) % hot // hot set: mostly CMT hits
		} else {
			lun = int64(r>>8) % luns // cold tail: misses, fills, evictions
		}
		if r%8 < 2 {
			f.Write(lun%(luns/4)*unit, unit, TagHostData, StreamData)
		} else {
			f.Read(lun*unit, unit)
		}
		if i%64 == 63 {
			f.Sync(StreamData, TagHostData)
			e.Run()
			if f.HasCheapVictim() {
				f.BackgroundGC(1)
			}
		}
		if i%256 == 255 {
			f.BackgroundGCForce(1)
		}
	}
	b.StopTimer()
	f.Sync(StreamData, TagHostData)
	e.Run()
	if err := f.CheckInvariants(); err != nil {
		b.Fatal(err)
	}
}

// dftlWideGeo spans ~700 translation pages (128 MB raw, 512 B units, 256
// entries per 2 KB page): wide enough that a per-flush O(numTPs) victim
// scan is measurably super-constant.
func dftlWideGeo() nand.Geometry {
	return nand.Geometry{
		Channels: 1, PackagesPerChannel: 1, DiesPerPackage: 1, PlanesPerDie: 1,
		BlocksPerPlane: 4096, PagesPerBlock: 16, PageSize: 2048,
	}
}

// BenchmarkDFTLTransFlush isolates the translation writeback pick: every
// iteration dirties one mapping entry in a rotating translation page and
// immediately writes back the hottest page. The CMT holds the whole map (no
// miss/eviction noise), so ns/op is the flush machinery itself — before the
// incremental dirty index, the victim pick alone walked all ~700 translation
// pages per flush.
func BenchmarkDFTLTransFlush(b *testing.B) {
	cfg := dftlCfg()
	cfg.CMTEntries = 1 << 20
	cfg.MetaFlushEntries = 1 << 30 // writebacks issued manually below
	e := sim.NewEngine()
	arr, err := nand.New(e, dftlWideGeo(), fastTim())
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(e, arr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	unit := int64(f.unit)
	luns := f.logicalBytes / unit
	epp := int64(f.fm.entriesPerTP)
	numTPs := int64(f.fm.numTPs)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lun := (int64(i)%numTPs)*epp + (int64(i)/numTPs)%epp
		if lun >= luns {
			lun = int64(i) % luns
		}
		f.Write(lun*unit, unit, TagHostData, StreamData)
		f.fm.flushing = true
		f.flushTP(f.fmHottestTP(), inject.SiteTransFlush)
		f.fm.flushing = false
		if i%64 == 63 {
			f.Sync(StreamData, TagHostData)
			e.Run()
			if f.HasCheapVictim() {
				f.BackgroundGC(1)
			}
		}
		if i%1024 == 1023 {
			f.BackgroundGCForce(1)
		}
	}
	b.StopTimer()
	f.Sync(StreamData, TagHostData)
	e.Run()
	if err := f.CheckInvariants(); err != nil {
		b.Fatal(err)
	}
}
