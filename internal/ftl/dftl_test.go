package ftl

import (
	"fmt"
	"testing"

	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// dftlGeo doubles smallGeo's block count so the logical space (716 units)
// exceeds the CMT floor (two translation pages = 512 entries): capacity
// evictions are reachable, not just threshold flushes. 2 KB pages keep
// entriesPerTP at 256, giving three translation virtual pages.
func dftlGeo() nand.Geometry {
	return nand.Geometry{
		Channels: 1, PackagesPerChannel: 1, DiesPerPackage: 1, PlanesPerDie: 1,
		BlocksPerPlane: 32, PagesPerBlock: 8, PageSize: 2048,
	}
}

// dftlCfg arms the flash-resident mapping table at the smallest legal CMT
// (CMTEntries below the floor clamps up to 512) with a writeback batch small
// enough that the tiny workloads here cross it many times.
func dftlCfg() Config {
	c := smallCfg()
	c.FlashMap = true
	c.CMTEntries = 1
	c.MetaFlushEntries = 96
	return c
}

func newDFTL(t testing.TB, cfg Config) (*sim.Engine, *nand.Array, *FTL) {
	t.Helper()
	e := sim.NewEngine()
	arr, err := nand.New(e, dftlGeo(), fastTim())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(e, arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, arr, f
}

// cmtAxes sets the CMT optimization axes one at a time, a finer grain than
// Config.CMTBasic (which switches them all together): noFill turns page-fill
// on miss off, window is the clean-first search depth (0 = default, 1 =
// strict LRU) and noBatch turns the checkpoint-cut remap batch off. All
// three at their basic settings make the FTL basic, as Config.CMTBasic does.
type cmtAxes struct {
	noFill  bool
	window  int
	noBatch bool
}

// apply sets the axes on a freshly built dftl-mode FTL.
func (a cmtAxes) apply(f *FTL) {
	fm := &f.fm
	fm.fill, fm.cleanWindow, fm.cutBatch = !a.noFill, a.window, !a.noBatch
	if a.window == 0 {
		fm.cleanWindow = defaultCleanWindow
	}
	fm.basic = !fm.fill && fm.cleanWindow == 1 && !fm.cutBatch
}

// settleCMT issues one top-level host write so deferred cap enforcement
// (updates made inside GC or a writeback settle at the next host-path
// mapping update) has run before the test asserts the bound.
func settleCMT(e *sim.Engine, f *FTL) {
	f.Write(0, int64(f.unit), TagHostData, StreamData)
	f.Sync(StreamData, TagHostData)
	e.Run()
}

// TestMappingOracle is the differential test for the dftl tentpole: under
// all three GC policies and three seeds, the flash-resident mapping table
// runs with the mapping oracle armed — every CMT miss asserts the
// translation-page copy of the entry equals the live map, panicking at the
// faulting access on the first divergence, and every CMT eviction checked
// against the window-scan reference (armEvictOracle) — while the victim-oracle
// workload drives skewed overwrites, trims, remaps, syncs and background
// GC. The FTL must keep every dftl invariant (CMT/LRU/directory coherence,
// full-sweep stored-vs-live agreement), survive a lossless SPOR rebuild of
// the translation directory, and keep doing all of the above after
// Fork carries the whole dftl state into a new instance.
func TestMappingOracle(t *testing.T) {
	for _, pol := range []GCPolicy{GCGreedy, GCCostBenefit, GCFIFO} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pol, seed), func(t *testing.T) {
				cfg := dftlCfg()
				cfg.GCPolicy = pol
				e, arr, f := newDFTL(t, cfg)
				f.EnableMapOracle()
				armEvictOracle(f)

				rng := benchRNG(0xa0761d6478bd642f ^ uint64(seed)*0xe7037ed1a0b428db)
				oracleWorkload(t, e, f, &rng, 2048)
				if f.stats.TransFlushes == 0 || f.stats.CMTMisses == 0 {
					t.Fatalf("workload exercised no translation traffic (flushes=%d misses=%d)",
						f.stats.TransFlushes, f.stats.CMTMisses)
				}
				settleCMT(e, f)
				if f.fm.cachedCount > f.fm.cap {
					t.Fatalf("CMT over bound at top level: %d > %d", f.fm.cachedCount, f.fm.cap)
				}
				if err := f.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if rep := f.VerifySPOR(); rep.Mismatches != 0 {
					t.Fatalf("SPOR lost durable state: %s", rep)
				}

				// Fork: the new instance must hold the identical
				// CMT, directory and flash-resident copies, and keep the
				// oracle quiet for the rest of the workload.
				f2, err := Fork(e, arr, f)
				if err != nil {
					t.Fatal(err)
				}
				f2.EnableMapOracle()
				armEvictOracle(f2)
				if err := f2.CheckInvariants(); err != nil {
					t.Fatalf("restored FTL: %v", err)
				}
				oracleWorkload(t, e, f2, &rng, 1024)
				settleCMT(e, f2)
				if f2.fm.cachedCount > f2.fm.cap {
					t.Fatalf("restored CMT over bound: %d > %d", f2.fm.cachedCount, f2.fm.cap)
				}
				if err := f2.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if rep := f2.VerifySPOR(); rep.Mismatches != 0 {
					t.Fatalf("restored SPOR lost durable state: %s", rep)
				}
			})
		}
	}
}

// TestTransGCCrashConsistency covers the trans-gc injection site at the FTL
// layer. The full-stack crash matrix cannot reach it: by the time the
// collector wants a translation block, uniform tvpn rotation has already
// killed every page on it, so it reclaims dead (the same reason the
// wear-level site lives in TestWearLevelCrashConsistency). Here we collect
// a block that still holds live translation pages directly and crash at the
// instant each page has been migrated: the directory, recovery records and
// coherence sweep must all hold, and the SPOR rebuild must reproduce the
// directory without loss.
func TestTransGCCrashConsistency(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := dftlCfg()
		inj := inject.New()
		cfg.Injector = inj
		e, _, f := newDFTL(t, cfg)

		// Spread writes across the whole space so flushes populate all
		// three translation virtual pages.
		unit := int64(f.unit)
		luns := f.logicalBytes / unit
		for i := 0; i < 1200; i++ {
			lun := (int64(seed)*31 + int64(i)*7) % luns
			f.Write(lun*unit, unit, TagHostData, StreamData)
			if i%64 == 63 {
				f.Sync(StreamData, TagHostData)
				e.Run()
			}
		}
		f.Sync(StreamData, TagHostData)
		e.Run()

		// Page-fill and clean-first eviction make organic eviction flushes
		// rare at this scale, so the live translation pages tend to sit on
		// the open translation frontier. Close a block over a live page
		// deliberately: rotating forced flushes append translation pages
		// (each supersedes only its own tvpn's previous copy) until some
		// closed block still owns a live page.
		closedLive := func() int {
			for pid, tvpn := range f.fm.tpOwner {
				if tvpn >= 0 && f.state[f.pidBlock(int64(pid))] == blockClosed {
					return f.pidBlock(int64(pid))
				}
			}
			return -1
		}
		epp := int64(f.fm.entriesPerTP)
		for i := 0; closedLive() < 0 && i < 200; i++ {
			tvpn := i % f.fm.numTPs
			f.Write(int64(tvpn)*epp*unit, unit, TagHostData, StreamData)
			f.fm.flushing = true
			f.flushTP(tvpn, inject.SiteTransFlush)
			f.fm.flushing = false
			f.Sync(StreamData, TagHostData)
			e.Run()
		}
		victim := closedLive()
		if victim < 0 {
			t.Fatalf("seed=%d: no closed block holds a live translation page", seed)
		}

		crashed := 0
		inj.Arm(inject.SiteTransGC, 0, nil, func(site inject.Site, hit int) {
			crashed++
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("seed=%d site=%s hit=%d: %v", seed, site, hit, err)
			}
			if rep := f.VerifySPOR(); rep.Mismatches != 0 {
				t.Fatalf("seed=%d site=%s hit=%d: SPOR lost durable state: %s", seed, site, hit, rep)
			}
		})
		before := f.stats.TransMigrated
		f.gcDepth++
		f.collectBlock(victim)
		f.gcDepth--
		e.Run()

		if crashed == 0 {
			t.Fatalf("seed=%d: trans-gc site never fired", seed)
		}
		if f.stats.TransMigrated == before {
			t.Fatalf("seed=%d: collector migrated no translation pages", seed)
		}
		for p := 0; p < f.pagesPerBlk; p++ {
			if tv := f.fm.tpOwner[int64(victim)*int64(f.pagesPerBlk)+int64(p)]; tv >= 0 {
				t.Fatalf("seed=%d: collected block %d still owns tvpn %d", seed, victim, tv)
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if rep := f.VerifySPOR(); rep.Mismatches != 0 {
			t.Fatalf("seed=%d: post-GC SPOR lost durable state: %s", seed, rep)
		}
	}
}

// FuzzCMTEviction lets the fuzzer pick the CMT bound, the writeback batch
// size, the remap-aware knobs (page-fill, clean-window depth, checkpoint-cut
// batching) and the workload shape, then replays the oracle workload twice.
// The first run arms the mapping and eviction oracles: any divergence
// between the flash-resident table and the live map, or between an
// eviction decision and the from-the-tail window scan, panics at the
// faulting step, and runs are evicted one entry at a time. The second run
// evicts runs a word at a time and must end in the same state (sameCMT).
// In both, every enforcement that starts above the bound must end at it,
// any structural break fails CheckInvariants, and the SPOR rebuild must
// stay lossless. Sub-floor CMT bounds exercise the clamp; batch size 1
// forces a writeback per dirtied translation page; the cmtAxes cover the
// basic layer (fill off, window 1, batch off) through deep clean-window
// search.
func FuzzCMTEviction(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint16(96), uint16(1024), false, uint8(0), false)
	f.Add(uint64(2), uint16(700), uint16(8), uint16(512), true, uint8(1), true)
	f.Add(uint64(3), uint16(520), uint16(200), uint16(1500), false, uint8(4), true)
	f.Add(uint64(0x9e3779b9), uint16(513), uint16(1), uint16(768), true, uint8(64), false)
	// Fuzzer-found: fill-mode CMT overshoot surviving a Sync-triggered GC
	// with no later top-level mapping update (fixed by fmAfterGC).
	f.Add(uint64(262), uint16(196), uint16(429), uint16(1400), false, uint8(41), false)
	// Fuzzer-found: SPOR replay picked a stale GC copy over a racing host
	// write — the migration minted a fresh OOB sequence for data appended
	// but not yet bound (fixed by recoveryLog.preserveCopy).
	f.Add(uint64(299), uint16(123), uint16(355), uint16(1410), true, uint8(34), false)
	f.Fuzz(func(t *testing.T, seed uint64, capEntries, flushAt, rounds uint16, noFill bool, window uint8, noBatch bool) {
		cfg := dftlCfg()
		cfg.CMTEntries = int(capEntries) // clamps up to the 512-entry floor
		cfg.MetaFlushEntries = int(flushAt)%512 + 1
		run := func(armed bool) cmtState {
			e, _, ftl := newDFTL(t, cfg)
			cmtAxes{noFill: noFill, window: int(window), noBatch: noBatch}.apply(ftl)
			ftl.EnableMapOracle()
			if armed {
				armEvictOracle(ftl)
			}
			checkEnforcement(ftl)

			rng := benchRNG(seed | 1)
			oracleWorkload(t, e, ftl, &rng, int(rounds)%1536+64)
			settleCMT(e, ftl)
			if ftl.fm.cachedCount > ftl.fm.cap {
				t.Fatalf("CMT over bound: %d > %d", ftl.fm.cachedCount, ftl.fm.cap)
			}
			if err := ftl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if rep := ftl.VerifySPOR(); rep.Mismatches != 0 {
				t.Fatalf("SPOR lost durable state: %s", rep)
			}
			return captureCMT(ftl)
		}
		sameCMT(t, run(true), run(false))
	})
}
