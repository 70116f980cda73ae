package ftl

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// tableViolations runs the slot table's own agreement check.
func tableViolations[T any](t *slotTable[T]) []string {
	var out []string
	t.check("table", func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	})
	return out
}

// chunkCount returns the number of chunks allocated to blocks (spares
// excluded) — the table's inline footprint in erase blocks.
func (t *slotTable[T]) chunkCount() int {
	n := 0
	for _, ch := range t.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

// sameAsRef reports the first disagreement between t and the map reference
// ref, comparing both the ascending iteration and point lookups, and
// checking that chunks are allocated exactly for the blocks where ref has
// slots.
func sameAsRef(t *slotTable[int64], ref map[int64][]int64) error {
	want := slices.Sorted(maps.Keys(ref))
	var got []int64
	t.each(func(sid int64, s []int64) {
		got = append(got, sid)
	})
	if !slices.Equal(got, want) {
		return fmt.Errorf("slots %v, want %v", got, want)
	}
	blocks := map[int64]bool{}
	for _, sid := range want {
		if s := t.get(sid); !slices.Equal(s, ref[sid]) {
			return fmt.Errorf("slot %d holds %v, want %v", sid, s, ref[sid])
		}
		blocks[sid/t.span] = true
	}
	if t.len() != len(ref) {
		return fmt.Errorf("len %d, want %d", t.len(), len(ref))
	}
	for blk, ch := range t.chunks {
		if (ch != nil) != blocks[int64(blk)] {
			return fmt.Errorf("block %d chunk allocated %v, want %v", blk, ch != nil, blocks[int64(blk)])
		}
	}
	if v := tableViolations(t); len(v) > 0 {
		return fmt.Errorf("check: %s", strings.Join(v, "; "))
	}
	return nil
}

// TestSlotTableOracle drives one slot table through random add / in-place
// edit / truncate / drop / block drop / save / restore sequences over a few
// hot slots in each of several blocks, against a map reference. A save
// clones the table; a restore replaces the live table by a clone of the
// saved one, and the saved table must stay as it was saved however its
// clones are edited later. The block span is not a multiple of a slot
// group, so a chunk's last group is partly unused. The run must cross every
// layout transition: inline to overflow and back, a chunk released at its
// last clear and by a block drop (one holding an overflow slot), and a
// save and a restore of a table holding spare chunks.
func TestSlotTableOracle(t *testing.T) {
	const span, blocks = 20, 5
	rng := rand.New(rand.NewPCG(7, 11))
	tab := newSlotTable[int64](blocks, span)
	ref := map[int64][]int64{}
	var saved slotTable[int64]
	var savedRef map[int64][]int64
	hot := []int64{0, 1, 2, 7, 8, span - 1}
	slot := func() int64 {
		return int64(rng.IntN(blocks))*span + hot[rng.IntN(len(hot))]
	}
	blockRef := func(blk int64) int {
		n := 0
		for sid := range ref {
			if sid/span == blk {
				n++
			}
		}
		return n
	}
	var toOverflow, toInline, lastClear, blockDrop, savedSpares, restoredSpares int
	for step := 0; step < 20000; step++ {
		sid := slot()
		spares := len(tab.spare)
		switch op := rng.IntN(100); {
		case op < 40:
			v := rng.Int64N(1000)
			if len(ref[sid]) == 1 {
				toOverflow++
			}
			tab.add(sid, v)
			ref[sid] = append(ref[sid], v)
		case op < 45:
			// in-place edits through get stick, inline or pooled
			if n := len(ref[sid]); n > 0 {
				k, v := rng.IntN(n), rng.Int64N(1000)
				tab.get(sid)[k] = v
				ref[sid][k] = v
			}
		case op < 70:
			if n := len(ref[sid]); n > 0 {
				k := rng.IntN(n)
				tab.truncate(sid, k)
				switch {
				case k == 0:
					delete(ref, sid)
					if blockRef(sid/span) == 0 {
						lastClear++
						if len(tab.spare) != spares+1 {
							t.Fatalf("step %d: block %d's last clear left %d spares, want %d", step, sid/span, len(tab.spare), spares+1)
						}
					}
				case k == 1:
					toInline++
					fallthrough
				default:
					ref[sid] = ref[sid][:k]
				}
			}
		case op < 82:
			tab.drop(sid)
			delete(ref, sid)
		case op < 87:
			blk := sid / span
			hadOverflow := false
			for s, e := range ref {
				if s/span == blk {
					hadOverflow = hadOverflow || len(e) > 1
					delete(ref, s)
				}
			}
			allocated := tab.chunks[blk] != nil
			tab.dropBlock(sid)
			if allocated {
				if len(tab.spare) != spares+1 {
					t.Fatalf("step %d: dropping block %d left %d spares, want %d", step, blk, len(tab.spare), spares+1)
				}
				if hadOverflow {
					blockDrop++
				}
			}
		case op < 93:
			savedSpares += min(len(tab.spare), 1)
			saved = tab.clone()
			savedRef = maps.Clone(ref)
			for k, v := range ref {
				savedRef[k] = slices.Clone(v)
			}
		case savedRef != nil && op < 97:
			restoredSpares += min(len(saved.spare), 1)
			tab = saved.clone()
			if len(tab.spare) != len(saved.spare) {
				t.Fatalf("step %d: restored %d spare chunks, saved table holds %d", step, len(tab.spare), len(saved.spare))
			}
			ref = maps.Clone(savedRef)
			for k, v := range savedRef {
				ref[k] = slices.Clone(v)
			}
		case savedRef != nil:
			// The saved table itself must be untouched by its clones'
			// later edits.
			if err := sameAsRef(&saved, savedRef); err != nil {
				t.Fatalf("step %d: saved table after its clones ran: %v", step, err)
			}
		}
		if err := sameAsRef(&tab, ref); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for name, n := range map[string]int{
		"inline to overflow": toOverflow, "overflow to inline": toInline,
		"chunk released at its last clear": lastClear, "block drop with an overflow slot": blockDrop,
		"save with spare chunks": savedSpares, "restore with spare chunks": restoredSpares,
	} {
		if n == 0 {
			t.Errorf("the run never crossed %s", name)
		}
	}
}

// TestSlotTableFootprint pins the inline layout's memory: a table whose
// slots each hold one alias record costs at most one record plus one state
// byte of heap per slot, plus a per-chunk allowance for the allocator's
// size-class rounding.
func TestSlotTableFootprint(t *testing.T) {
	const span, blocks = 512, 64 // the benchmark geometry's erase block
	const chunkOverhead = 1024
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := newSlotTable[oobRecord](blocks, span)
	for sid := int64(0); sid < span*blocks; sid++ {
		tab.add(sid, oobRecord{lun: sid, seq: uint64(sid) + 1})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if tab.len() != span*blocks || tab.chunkCount() != blocks {
		t.Fatalf("%d slots in %d chunks, want %d in %d", tab.len(), tab.chunkCount(), span*blocks, blocks)
	}
	perSlot := int64(unsafe.Sizeof(oobRecord{})) + 1
	budget := span*blocks*perSlot + blocks*chunkOverhead
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > budget {
		t.Fatalf("%d single-record slots grew the heap by %d bytes, want at most %d (%d per slot + %d per chunk)",
			span*blocks, grew, budget, perSlot, chunkOverhead)
	}
	runtime.KeepAlive(&tab)
}

// TestFTLTableFootprint pins the width of the FTL's address tables at the
// benchmark geometry (4 channels × 2 dies × 2 planes × 40 blocks × 64
// pages of 4 KiB, 512 B units: 327,680 slots): the forward map, the
// reverse map, the split OOB record and, under dftl, the flash-resident
// map copy and the translation pages' OOB tvpn. Stored in 32 bits with a
// 64-bit OOB sequence number, chunk directories and last-chunk padding
// included, they cost 19.7 B per slot under dram and 23.8 B under dftl;
// one table back at 64 bits breaks the budget.
func TestFTLTableFootprint(t *testing.T) {
	geo := nand.Geometry{Channels: 4, PackagesPerChannel: 1, DiesPerPackage: 2, PlanesPerDie: 2,
		BlocksPerPlane: 40, PagesPerBlock: 64, PageSize: 4096}
	for _, tc := range []struct {
		name     string
		flashMap bool
		budget   float64 // B per slot
	}{{"dram", false, 20}, {"dftl", true, 24}} {
		cfg := DefaultConfig()
		cfg.UnitSize, cfg.OverProvision, cfg.Parallelism = 512, 0.12, 8
		cfg.MetaFlushEntries, cfg.FlashMap, cfg.CMTEntries = 512, tc.flashMap, 32768
		e := sim.NewEngine()
		arr, err := nand.New(e, geo, fastTim())
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(e, arr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bytes := tableBytes(&f.l2p) + tableBytes(&f.rev) + tableBytes(&f.rlog.oobLun) + tableBytes(&f.rlog.oobSeq) +
			tableBytes(&f.fm.stored) + tableBytes(&f.rlog.tp)
		slots := f.refcnt.len()
		perSlot := float64(bytes) / float64(slots)
		t.Logf("%s: %d B of address tables over %d slots, %.2f B per slot", tc.name, bytes, slots, perSlot)
		if slots != 327_680 || perSlot > tc.budget {
			t.Errorf("%s: %.2f B per slot over %d slots, want at most %.0f over 327680", tc.name, perSlot, slots, tc.budget)
		}
	}
}

// tableBytes is the heap a table holds: its chunks, padding included, and
// its directory.
func tableBytes[T tableEntry](t *chunkTable[T]) int64 {
	var chunk [chunkSpan]T
	var ref []T
	var own bool
	return int64(t.chunks()) * int64(unsafe.Sizeof(chunk)+unsafe.Sizeof(ref)+unsafe.Sizeof(own))
}

// overflowRef derives the reverse-overflow reference from the forward map
// alone: slot → the logical units mapping to it other than its primary.
func overflowRef(f *FTL) map[int64][]int32 {
	ref := map[int64][]int32{}
	for lun, sid := range f.l2p.all() {
		if sid >= 0 && f.rev.at(int64(sid)) != int32(lun) {
			ref[int64(sid)] = append(ref[int64(sid)], int32(lun))
		}
	}
	return ref
}

// TestSlotTablesThroughFTL runs remaps, journal trims, host overwrites, GC
// and program-failure restaging on a small FTL with a fault model, checking
// after every step that the reverse-overflow table equals the map reference
// derived from the forward map, that both slot tables pass their agreement
// check, and that SPOR rebuilds the mapping from the alias log exactly.
func TestSlotTablesThroughFTL(t *testing.T) {
	cfg := smallCfg()
	cfg.SpareBlocksPerDie = 4
	e, f := newSmall(t, cfg)
	if err := f.array.EnableReliability(nand.ReliabilityConfig{ProgramFailRate: 0.03}, 5); err != nil {
		t.Fatal(err)
	}
	unit := int64(f.unit)
	const journalUnits, dataBase = 24, 64
	rng := rand.New(rand.NewPCG(3, 9))
	sawOverflow := false
	for step := 0; step < 400 && !f.ReadOnly(); step++ {
		switch op := rng.IntN(10); {
		case op < 4:
			// journal a few units, then checkpoint them by remap
			first := rng.Int64N(journalUnits - 4)
			n := 1 + rng.Int64N(4)
			f.Write(first*unit, n*unit, TagHostJournal, StreamJournal)
			f.Sync(StreamJournal, TagHostJournal)
			e.Run()
			f.Remap(first*unit, (dataBase+first)*unit, n*unit)
		case op < 6:
			f.Trim(0, journalUnits*unit)
		case op < 8:
			lun := dataBase + rng.Int64N(journalUnits)
			f.Write(lun*unit, unit, TagHostData, StreamData)
		default:
			f.BackgroundGCForce(1)
		}
		e.Run()
		f.DrainFaults()
		e.Run()
		ref := overflowRef(f)
		sawOverflow = sawOverflow || len(ref) > 0
		for sid, luns := range ref {
			got := slices.Sorted(slices.Values(f.revOverflow.get(sid)))
			if slices.Sort(luns); !slices.Equal(got, luns) {
				t.Fatalf("step %d: slot %d overflow %v, want %v", step, sid, got, luns)
			}
		}
		if f.revOverflow.len() != len(ref) {
			t.Fatalf("step %d: %d overflow slots, want %d", step, f.revOverflow.len(), len(ref))
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if rep := f.VerifySPOR(); rep.Mismatches != 0 {
			t.Fatalf("step %d: %v", step, rep)
		}
	}
	st := f.Stats()
	if !sawOverflow || st.Remaps == 0 || st.GCInvocations == 0 || st.ProgramFailMoves == 0 {
		t.Fatalf("run missed a path: overflow %v, remaps %d, gc %d, program-fail restages %d",
			sawOverflow, st.Remaps, st.GCInvocations, st.ProgramFailMoves)
	}
}

// TestRemapTrimAllocs guards the checkpoint remap path.
//
// journal-cycle: once the slot tables' pools have grown to a burst's size,
// remap bursts (each shares a journal slot, adding a reverse-overflow entry
// and an alias record) and the journal trim that follows (dropping the
// overflow entries) allocate nothing. Journal writes and GC run between the
// measured sections; their programs are guarded separately.
//
// growing-alias-set: remapping fresh journal slots across many blocks,
// with no trim or erase between, allocates at most once per block chunk
// either table newly allocates, and not at all once every block's chunks
// exist. A remap in a seventeenth block first gives both tables their
// block directories, a once-per-table cost.
func TestRemapTrimAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t.Run("journal-cycle", func(t *testing.T) {
		cfg := smallCfg()
		cfg.MetaFlushEntries = 1 << 30 // metadata flush paths measured separately
		e, f := newSmall(t, cfg)
		unit := int64(f.unit)
		const journalUnits, dataBase, burst = 16, 64, 4

		const warm, cycles = 20, 60
		// The persisted trim-extent log gains one record per Trim, by design
		// unbounded; pre-size it so only the slot tables are under test.
		f.rlog.trims = slices.Grow(f.rlog.trims, warm+cycles)

		var before, after runtime.MemStats
		var mallocs uint64
		for c := 0; c < warm+cycles; c++ {
			f.Write(0, journalUnits*unit, TagHostJournal, StreamJournal)
			f.Sync(StreamJournal, TagHostJournal)
			e.Run()
			f.BackgroundGCForce(1)
			e.Run()

			runtime.ReadMemStats(&before)
			for off := int64(0); off < journalUnits; off += burst {
				f.Remap(off*unit, (dataBase+off)*unit, burst*unit)
			}
			f.Trim(0, journalUnits*unit)
			runtime.ReadMemStats(&after)
			if c >= warm {
				mallocs += after.Mallocs - before.Mallocs
			}
			e.Run()
		}
		if f.Stats().Remaps == 0 || f.Stats().GCInvocations == 0 {
			t.Fatal("remap/GC never ran")
		}
		if mallocs != 0 {
			t.Fatalf("remap bursts + journal trims allocated %d times over %d steady cycles, want 0", mallocs, cycles)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("growing-alias-set", func(t *testing.T) {
		geo := smallGeo()
		geo.BlocksPerPlane = 64
		cfg := smallCfg()
		cfg.MetaFlushEntries = 1 << 30
		e := sim.NewEngine()
		arr, err := nand.New(e, geo, fastTim())
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(e, arr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		unit := int64(f.unit)
		slotsPerBlock := int64(f.pagesPerBlk * f.slotsPerPage)
		journalUnits := 16 * slotsPerBlock // sixteen blocks of journal
		dataBase := 2 * journalUnits
		f.Write(0, (journalUnits+slotsPerBlock)*unit, TagHostJournal, StreamJournal)
		f.Sync(StreamJournal, TagHostJournal)
		e.Run()
		f.Remap(journalUnits*unit, (dataBase+journalUnits)*unit, unit)

		chunks := func() int { return f.revOverflow.chunkCount() + f.rlog.aliases.chunkCount() }
		// remap every other journal unit, then the rest; each pass
		// measured as a whole
		remapPass := func(parity int64) (mallocs uint64, newChunks int) {
			var before, after runtime.MemStats
			c0 := chunks()
			runtime.ReadMemStats(&before)
			for lun := parity; lun < journalUnits; lun += 2 {
				f.Remap(lun*unit, (dataBase+lun)*unit, unit)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, chunks() - c0
		}
		mallocs, newChunks := remapPass(0)
		t.Logf("first pass: %d allocations for %d new block chunks", mallocs, newChunks)
		if want := 2 * 16; newChunks != want {
			t.Fatalf("first pass allocated %d block chunks, want %d (two tables × sixteen blocks)", newChunks, want)
		}
		if mallocs > uint64(newChunks) {
			t.Fatalf("first pass allocated %d times for %d new block chunks, want at most one per chunk", mallocs, newChunks)
		}
		if mallocs, newChunks = remapPass(1); mallocs != 0 || newChunks != 0 {
			t.Fatalf("second pass over existing chunks allocated %d times (%d new chunks), want 0", mallocs, newChunks)
		}
		if f.rlog.aliases.len() != int(journalUnits)+1 || f.Stats().GCInvocations != 0 {
			t.Fatalf("%d alias slots, %d collections: want %d and none", f.rlog.aliases.len(), f.Stats().GCInvocations, journalUnits+1)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
