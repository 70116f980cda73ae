package ftl

import (
	"fmt"
	"slices"
	"testing"
)

// evictScan is the reference clean-first eviction choice: a fresh window
// scan from the LRU tail on every decision. It returns the tail if clean,
// else the first clean entry among the cleanWindow tail-most ones, else -1
// (flush the tail's translation page). fmEnforceCap's resumed search must
// make exactly this choice at every step.
func (fm *flashMap) evictScan() int32 {
	victim := fm.lruTail
	if fm.isDirty(int64(victim)) {
		victim = -1
		for l, scanned := fm.lruPrev[fm.lruTail], 1; l >= 0 && scanned < fm.cleanWindow; l, scanned = fm.lruPrev[l], scanned+1 {
			if !fm.isDirty(int64(l)) {
				victim = l
				break
			}
		}
	}
	return victim
}

// lruOrder returns the CMT's LRU from head to tail.
func lruOrder(fm *flashMap) []int32 {
	var order []int32
	for l := fm.lruHead; l >= 0; l = fm.lruNext[l] {
		order = append(order, l)
	}
	return order
}

// evictLog counts the eviction decisions the reference scan confirmed.
type evictLog struct {
	evictions int // clean victims
	deep      int // clean victims behind a dirty tail (depth > 0)
	flushes   int // whole window dirty: the tail's page flushed
	// reorders counts flushes after which the LRU order had changed by the
	// next decision of the same fmEnforceCap loop: GC triggered by the
	// flush's translation program rebound mapping entries, the case the
	// cursor reset exists for.
	reorders int

	atFlush []int32 // LRU order at the last flush, until the next decision
}

// armEvictOracle checks every fmEnforceCap decision against evictScan (a
// divergence panics in fmEnforceCap) and returns the decision counts.
func armEvictOracle(f *FTL) *evictLog {
	log := &evictLog{}
	fm := &f.fm
	fm.evictOracle = func() int32 {
		if log.atFlush != nil {
			// A flush never shrinks the CMT, so this decision belongs to
			// the same enforcement loop as the flush.
			if !slices.Equal(log.atFlush, lruOrder(fm)) {
				log.reorders++
			}
			log.atFlush = nil
		}
		v := fm.evictScan()
		switch {
		case v < 0:
			log.flushes++
			log.atFlush = lruOrder(fm)
		case v != fm.lruTail:
			log.deep++
			log.evictions++
		default:
			log.evictions++
		}
		return v
	}
	return log
}

// evictWindows are the clean-window depths the eviction oracle covers:
// strict LRU, the shallowest resumable window, the default, and a window
// deeper than the whole 512-entry CMT (the search can run off the head).
var evictWindows = []int{1, 2, defaultCleanWindow, 1024}

// TestCMTEvictionOracle is the differential test for the resumed
// clean-first search: fmEnforceCap must pick exactly the victim — or flush
// — that a fresh window scan from the tail picks, at every decision, so the
// two produce the identical victim and flush sequence.
//
// Two drivers per window depth. "burst" builds a random dirty/clean LRU
// over the whole mapped space and then drops the CMT bound, so one
// enforcement loop runs hundreds of evictions with flushes between them,
// and raised GC watermarks make those flushes' translation programs
// trigger GC that rebinds entries and reorders the LRU mid-loop. "workload" runs a
// read/write/remap/trim mix whose page-fill misses and dirtying updates
// leave random tails at every host-path enforcement.
func TestCMTEvictionOracle(t *testing.T) {
	var reorders int
	for _, window := range evictWindows {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("burst/window%d/seed%d", window, seed), func(t *testing.T) {
				log := evictBurst(t, window, seed)
				t.Logf("evictions %d (deep %d), flushes %d, reorders %d", log.evictions, log.deep, log.flushes, log.reorders)
				if log.flushes == 0 || log.evictions == 0 {
					t.Fatalf("burst made %d evictions and %d flushes; want both", log.evictions, log.flushes)
				}
				if window > 1 && log.deep == 0 {
					t.Fatal("no victim behind a dirty tail: the resumed search was never exercised")
				}
				reorders += log.reorders
			})
			t.Run(fmt.Sprintf("workload/window%d/seed%d", window, seed), func(t *testing.T) {
				log := evictWorkload(t, window, seed)
				t.Logf("evictions %d (deep %d), flushes %d, reorders %d", log.evictions, log.deep, log.flushes, log.reorders)
				if log.evictions == 0 {
					t.Fatal("workload made no evictions")
				}
				if window <= defaultCleanWindow && log.flushes == 0 {
					t.Fatal("workload made no eviction flushes")
				}
				reorders += log.reorders
			})
		}
	}
	if reorders == 0 {
		t.Fatal("no flush reordered the LRU mid-loop: the cursor reset was never exercised")
	}
}

// evictBurst maps the whole logical space, persists it, rebuilds the CMT
// as a random permutation of every lun with a random share dirty, and
// enforces a random bound below its dirty share in one loop. The GC
// watermarks are raised for the loop so every translation program the
// loop's flushes issue triggers a collection whose migrations rebind (and
// so reorder) cached entries.
func evictBurst(t *testing.T, window int, seed uint64) *evictLog {
	t.Helper()
	cfg := dftlCfg()
	cfg.CMTCleanWindow = window
	cfg.MetaFlushEntries = 1 << 30 // only eviction flushes
	e, _, f := newDFTL(t, cfg)
	f.EnableMapOracle()
	log := armEvictOracle(f)
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
	rng := benchRNG(seed * 0x9e3779b97f4a7c15)
	for i := 0; i < int(luns)/4; i++ { // partly invalid blocks: cheap GC victims
		f.Trim(int64(rng.next()%uint64(luns))*unit, unit)
	}
	persistTPs(t, e, f)
	uncacheClean(f)

	perm := make([]int64, luns)
	for i := range perm {
		perm[i] = int64(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	dirtyPct := 30 + rng.next()%60
	fm := &f.fm
	fm.flushing = true // build the LRU without triggering settles
	for _, lun := range perm {
		if fm.isCached(lun) {
			continue
		}
		if rng.next()%100 < dirtyPct {
			f.fmWrite(lun)
		} else {
			fm.insert(lun)
		}
	}
	fm.flushing = false

	bound, low, high := fm.cap, f.cfg.GCLowWater, f.cfg.GCHighWater
	// Below the dirty share (at least 30%), so even a window wider than
	// the CMT must flush.
	fm.cap = int(rng.next() % uint64(fm.cachedCount/4))
	f.cfg.GCLowWater, f.cfg.GCHighWater = f.freeCount+1, f.freeCount+2
	f.fmEnforceCap()
	if fm.cachedCount > fm.cap {
		t.Fatalf("enforcement left %d entries over a bound of %d", fm.cachedCount, fm.cap)
	}
	fm.cap, f.cfg.GCLowWater, f.cfg.GCHighWater = bound, low, high
	e.Run()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return log
}

// evictWorkload drives skewed reads (page-fill misses: clean entries),
// writes (dirty entries), remaps and trims with the writeback threshold
// off, so clean and dirty entries interleave in the LRU tail.
func evictWorkload(t *testing.T, window int, seed uint64) *evictLog {
	t.Helper()
	cfg := dftlCfg()
	cfg.CMTCleanWindow = window
	cfg.MetaFlushEntries = 1 << 30
	e, _, f := newDFTL(t, cfg)
	f.EnableMapOracle()
	log := armEvictOracle(f)
	unit := int64(f.unit)
	luns := f.logicalBytes / unit
	hot := luns / 4
	rng := benchRNG(seed ^ 0xd1b54a32d192ed03)
	for i := 0; i < 3000; i++ {
		r := rng.next()
		lun := int64(r>>8) % luns
		if r%3 != 0 {
			lun %= hot
		}
		switch r % 8 {
		case 0, 1, 2, 3:
			f.Read(lun*unit, unit)
		case 4, 5:
			f.Write(lun*unit, unit, TagHostData, StreamData)
		case 6:
			f.Remap(lun*unit, (luns-1-lun)*unit, unit)
		default:
			f.Trim(lun*unit, unit)
		}
		if i%64 == 63 {
			f.Sync(StreamData, TagHostData)
			e.Run()
			if f.HasCheapVictim() {
				f.BackgroundGC(1)
			}
		}
	}
	settleCMT(e, f)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rep := f.VerifySPOR(); rep.Mismatches != 0 {
		t.Fatalf("SPOR lost durable state: %s", rep)
	}
	return log
}
