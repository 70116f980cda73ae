package ftl

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// unalignedGeo has 1280 B pages mapped in 256 B units: 160 entries per
// translation page, so every odd page starts mid-way through a 64-entry
// bitmap word and its runs straddle one word more than the page's width.
func unalignedGeo() nand.Geometry {
	g := dftlGeo()
	g.PageSize = 1280
	return g
}

// cmtState is what the bulk and the per-entry eviction paths must agree
// on: the CMT in per-entry LRU order, its bitmaps, the counters and the
// live map.
type cmtState struct {
	lru           []int32
	cached, dirty []uint64
	stats         Stats
	l2p           []int32
}

func captureCMT(f *FTL) cmtState {
	return cmtState{
		lru:    lruOrder(&f.fm),
		cached: slices.Clone(f.fm.cached),
		dirty:  slices.Clone(f.fm.dirty),
		stats:  f.stats,
		l2p:    entries(&f.l2p),
	}
}

// sameCMT fails t unless the reference (armed) and bulk runs ended alike.
func sameCMT(t *testing.T, ref, bulk cmtState) {
	t.Helper()
	switch {
	case !slices.Equal(ref.lru, bulk.lru):
		t.Fatalf("LRU order differs: %d entries per-entry, %d bulk", len(ref.lru), len(bulk.lru))
	case !slices.Equal(ref.cached, bulk.cached):
		t.Fatal("cached bitmaps differ")
	case !slices.Equal(ref.dirty, bulk.dirty):
		t.Fatal("dirty bitmaps differ")
	case ref.stats != bulk.stats:
		t.Fatalf("stats differ:\nper-entry %+v\nbulk      %+v", ref.stats, bulk.stats)
	case !slices.Equal(ref.l2p, bulk.l2p):
		t.Fatal("live maps differ")
	}
}

// enforceLog counts the cap enforcement passes that started above the
// bound.
type enforceLog struct{ capPasses, gcPasses int }

// checkEnforcement hooks every enforcement pass of f and panics at the
// first that starts above the bound and ends anywhere but exactly at it.
// fmAfterGC evicts clean entries only, so it may stop above the bound, but
// then every entry left must be dirty.
func checkEnforcement(f *FTL) *enforceLog {
	log := &enforceLog{}
	fm := &f.fm
	fm.enforced = func(afterGC bool, start int) {
		if start <= fm.cap {
			return
		}
		if afterGC {
			log.gcPasses++
			if fm.cachedCount == fm.cap || fm.cachedCount > fm.cap && fm.cachedCount == fm.dirtyCount {
				return
			}
		} else if log.capPasses++; fm.cachedCount == fm.cap {
			return
		}
		panic(fmt.Sprintf("ftl: enforcement (after GC %v) went from %d to %d entries, bound %d (%d dirty)",
			afterGC, start, fm.cachedCount, fm.cap, fm.dirtyCount))
	}
	return log
}

// TestCMTRunBulkEviction is the differential test for run eviction a word
// at a time: one workload runs twice, once with the eviction oracle armed
// (every run eviction goes one entry at a time through remove, each
// fmEnforceCap decision checked against the window scan) and once on the
// bulk path. Both must end with the same per-entry LRU order, bitmaps,
// counters and live map, and every enforcement that starts above the bound
// must end exactly at it. The mix of page-fill reads, writes, remaps, trims
// and background GC reaches both fmEnforceCap and fmAfterGC; the unaligned
// geometry puts run bitmaps across word boundaries.
func TestCMTRunBulkEviction(t *testing.T) {
	for _, geo := range []struct {
		name string
		geo  nand.Geometry
		unit int
	}{{"aligned", dftlGeo(), 512}, {"unaligned", unalignedGeo(), 256}} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", geo.name, seed), func(t *testing.T) {
				run := func(armed bool) (cmtState, *enforceLog) {
					cfg := dftlCfg()
					cfg.UnitSize = geo.unit
					cfg.MetaFlushEntries = 160
					e := sim.NewEngine()
					arr, err := nand.New(e, geo.geo, fastTim())
					if err != nil {
						t.Fatal(err)
					}
					f, err := New(e, arr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					f.EnableMapOracle()
					if armed {
						armEvictOracle(f)
					}
					log := checkEnforcement(f)
					runMixWorkload(t, e, f, seed, 4000)
					if err := f.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					return captureCMT(f), log
				}
				ref, refLog := run(true)
				bulk, bulkLog := run(false)
				t.Logf("enforcements: %d cap, %d after GC; evictions %d", bulkLog.capPasses, bulkLog.gcPasses, bulk.stats.CMTEvictions)
				if bulkLog.capPasses == 0 || bulkLog.gcPasses == 0 || *refLog != *bulkLog {
					t.Fatalf("enforcement passes: per-entry %+v, bulk %+v; want equal and both kinds", *refLog, *bulkLog)
				}
				sameCMT(t, ref, bulk)
			})
		}
	}
}

// runMixWorkload maps the whole space and persists every translation page,
// so any miss fetches and page-fills, then drives uniform reads, writes to
// the lowest quarter, remaps and trims, with syncs and background GC (cheap
// and forced) every 64 ops.
func runMixWorkload(t *testing.T, e *sim.Engine, f *FTL, seed uint64, ops int) {
	t.Helper()
	unit := int64(f.unit)
	luns := f.logicalBytes / unit
	for lun := int64(0); lun < luns; lun++ {
		f.Write(lun*unit, unit, TagHostData, StreamData)
		if lun%64 == 63 {
			f.Sync(StreamData, TagHostData)
			e.Run()
		}
	}
	persistTPs(t, e, f)
	uncacheClean(f)
	rng := benchRNG(seed*0x9e3779b97f4a7c15 + 1)
	for i := 0; i < ops; i++ {
		r := rng.next()
		lun := int64(r>>8) % luns
		switch r % 8 {
		case 0, 1, 2, 3:
			f.Read(lun*unit, unit)
		case 4, 5:
			f.Write(lun%(luns/4)*unit, unit, TagHostData, StreamData)
		case 6:
			f.Remap(lun%(luns/2)*unit, (luns/2+lun%(luns/2))*unit, unit)
		default:
			f.Trim(lun*unit, unit)
		}
		if i%64 == 63 {
			f.Sync(StreamData, TagHostData)
			e.Run()
			if f.HasCheapVictim() {
				f.BackgroundGC(1)
			}
			f.BackgroundGCForce(1)
		}
	}
	f.Sync(StreamData, TagHostData)
	e.Run()
}

// TestCMTRunInvariants pins the run checks in CheckInvariants: a clean
// state passes, and a planted dirty member, a wrong member count and a
// stale page-list entry are each reported.
func TestCMTRunInvariants(t *testing.T) {
	build := func(t *testing.T) *FTL {
		cfg := dftlCfg()
		cfg.MetaFlushEntries = 1 << 30
		e, _, f := newDFTL(t, cfg)
		runMixWorkload(t, e, f, 7, 600)
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	liveRun := func(t *testing.T, f *FTL) int32 {
		for l := f.fm.lruTail; l >= 0; l = f.fm.lruPrev[l] {
			if l >= f.fm.runBase {
				return l - f.fm.runBase
			}
		}
		t.Fatal("no run in the CMT")
		return -1
	}
	for _, tc := range []struct {
		name, want string
		tamper     func(t *testing.T, f *FTL)
	}{
		{"dirty-member", "is dirty", func(t *testing.T, f *FTL) {
			fm := &f.fm
			lun := fm.lowestMember(liveRun(t, f))
			fm.dirty[lun>>6] |= 1 << (uint64(lun) & 63)
			fm.dirtyCount++
			fm.dirtyByTP[fm.tvpnOf(lun)]++
		}},
		{"wrong-count", "member bits", func(t *testing.T, f *FTL) {
			f.fm.runs[liveRun(t, f)].count++
			f.fm.cachedCount++
		}},
		{"stale-page-list", "not one of its live runs", func(t *testing.T, f *FTL) {
			fm := &f.fm
			r := fm.runFree
			if r < 0 {
				t.Fatal("no freed run to leave behind")
			}
			fm.runFree = fm.runs[r].next
			fm.runs[r].next = fm.tpRuns[fm.runs[r].tvpn]
			fm.tpRuns[fm.runs[r].tvpn] = r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := build(t)
			tc.tamper(t, f)
			err := f.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want a report containing %q", err, tc.want)
			}
		})
	}
}
