package ftl

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/inject"
)

// TestLunsOfScratchAliasing is the regression net for the documented
// lunsOf scratch-buffer hazard (DESIGN.md §6): the returned slice aliases
// a buffer reused by the next lunsOf call, so callers must consume it
// before any nested FTL call that might re-enter lunsOf. The GC migration
// loop (collectBlock) is the load-bearing caller: it holds the slice
// across appendSlot/bindSlot/shareSlot/noteMapDirty. This test locks in
// that (a) that exact nested sequence does not touch the scratch, and
// (b) a real migration of shared slots preserves every reference.
func TestLunsOfScratchAliasing(t *testing.T) {
	cfg := smallCfg()
	e, f := newSmall(t, cfg)

	// Two journal units plus a data record, then remap to share slots
	// (refcnt 2: journal lun + data lun reference the same slot).
	unit := int64(f.unit)
	f.Write(0, 2*unit, TagHostJournal, StreamJournal)
	f.Sync(StreamJournal, TagHostJournal)
	e.Run()
	dst := int64(4096 * 8)
	f.Remap(0, dst, 2*unit)
	e.Run()

	sidShared := int64(f.l2p.at(0))
	if sidShared < 0 || f.refcnt.at(sidShared) < 2 {
		t.Fatalf("setup failed: slot %d refcnt %d, want shared", sidShared, f.refcnt.at(sidShared))
	}

	// (a) The migration loop's invariant: the nested calls it performs
	// while holding the lunsOf result must leave the scratch untouched.
	luns := f.lunsOf(sidShared)
	snapshot := append([]int64(nil), luns...)
	f.noteMapDirty(1)
	newSid := f.appendSlot(StreamGC, snapshot[0], TagGC)
	f.bindSlot(snapshot[0], newSid)
	for i, l := range luns {
		if l != snapshot[i] {
			t.Fatalf("nested FTL call corrupted caller's lunsOf slice: %v != %v (scratch aliasing)", luns, snapshot)
		}
	}
	// Undo the probe rebinding: shareSlot unmaps the lun from newSid
	// (killing the probe slot) and re-attaches it to the still-live shared
	// slot, restoring refcnt 2.
	f.shareSlot(snapshot[0], sidShared)

	// (b) End-to-end: migrate the shared slot's block and verify every
	// reference survived with sharing intact.
	wantLuns := map[int64]bool{}
	for _, l := range f.lunsOf(sidShared) {
		wantLuns[l] = true
	}
	b := f.slotBlock(sidShared)
	f.gcDepth++
	f.collectBlock(b)
	f.gcDepth--
	e.Run()
	var moved int64 = -1
	for l := range wantLuns {
		sid := int64(f.l2p.at(l))
		if sid < 0 {
			t.Fatalf("GC migration lost lun %d", l)
		}
		if moved < 0 {
			moved = sid
		} else if sid != moved {
			t.Fatalf("GC migration broke sharing: lun %d at slot %d, expected %d", l, sid, moved)
		}
	}
	if int(f.refcnt.at(moved)) != len(wantLuns) {
		t.Fatalf("migrated slot refcnt %d, want %d", f.refcnt.at(moved), len(wantLuns))
	}
	checkInvariants(t, f)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWearLevelCrashConsistency covers the wear-level injection site at
// the FTL layer (the full-stack crash matrix rarely reaches an idle
// window): crash immediately after a static wear-leveling migration and
// verify the mapping table, refcounts and the OOB-rebuilt (SPOR) state
// all survive.
func TestWearLevelCrashConsistency(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := smallCfg()
		cfg.WearDeltaThreshold = 2
		inj := inject.New()
		cfg.Injector = inj
		e, f := newSmall(t, cfg)

		crashed := false
		inj.Arm(inject.SiteWearLevel, 0, nil, func(site inject.Site, hit int) {
			crashed = true
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("seed=%d site=%s hit=%d: %v", seed, site, hit, err)
			}
			if rep := f.VerifySPOR(); rep.Mismatches != 0 {
				t.Fatalf("seed=%d site=%s hit=%d: SPOR lost durable state: %s", seed, site, hit, rep)
			}
		})

		// Pin cold data, hammer a hot range (seed varies the hot offset),
		// and give the leveler chances to move the cold block.
		f.Write(65536, 32768, TagHostData, StreamData)
		f.Sync(StreamData, TagHostData)
		e.Run()
		hot := (seed - 1) * 4096
		for i := 0; i < 400 && !crashed; i++ {
			f.Write(hot, 8192, TagHostData, StreamData)
			e.Run()
			if i%10 == 0 {
				f.MaybeWearLevel()
				e.Run()
			}
		}
		if !crashed {
			t.Fatalf("seed=%d: wear-level site never fired", seed)
		}
		if _, _, ok := inj.Fired(); !ok {
			t.Fatal("injector did not record the crash")
		}
	}
}
