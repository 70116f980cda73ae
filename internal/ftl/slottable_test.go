package ftl

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/checkin-kv/checkin/internal/dense"
	"github.com/checkin-kv/checkin/internal/nand"
)

// tableViolations runs the slot table's own agreement check.
func tableViolations[T any](t *slotTable[T]) []string {
	var out []string
	t.check("table", func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	})
	return out
}

// sameAsRef reports the first disagreement between t and the map reference
// ref, comparing both the ascending iteration and point lookups, and
// checking that chunks are allocated exactly where ref has slots.
func sameAsRef(t *slotTable[int64], ref map[int64][]int64) error {
	want := slices.Sorted(func(yield func(int64) bool) {
		for sid := range ref {
			if !yield(sid) {
				return
			}
		}
	})
	var got []int64
	t.each(func(sid int64, s []int64) {
		got = append(got, sid)
	})
	if !slices.Equal(got, want) {
		return fmt.Errorf("slots %v, want %v", got, want)
	}
	chunks := map[int64]bool{}
	for _, sid := range want {
		if s := t.get(sid); !slices.Equal(s, ref[sid]) {
			return fmt.Errorf("slot %d holds %v, want %v", sid, s, ref[sid])
		}
		chunks[sid/dense.ChunkSize] = true
	}
	if t.len() != len(ref) {
		return fmt.Errorf("len %d, want %d", t.len(), len(ref))
	}
	if n := t.idx.Chunks(); n != len(chunks) {
		return fmt.Errorf("%d chunks allocated, want %d", n, len(chunks))
	}
	if v := tableViolations(t); len(v) > 0 {
		return fmt.Errorf("check: %s", strings.Join(v, "; "))
	}
	return nil
}

// TestSlotTableOracle drives one slot table through random add / truncate /
// drop / save / restore sequences over slots spread across several chunks,
// against a map reference. A save clones the table; a restore replaces the
// live table by a clone of the saved one, and the saved table must stay as
// it was saved however its clones are edited later.
func TestSlotTableOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	var tab slotTable[int64]
	ref := map[int64][]int64{}
	var saved slotTable[int64]
	var savedRef map[int64][]int64
	// a few hot slots per chunk, so entries come and go repeatedly
	slot := func() int64 {
		return int64(rng.IntN(5))*dense.ChunkSize + int64(rng.IntN(6))
	}
	for step := 0; step < 8000; step++ {
		sid := slot()
		switch op := rng.IntN(100); {
		case op < 45:
			v := rng.Int64N(1000)
			tab.add(sid, v)
			ref[sid] = append(ref[sid], v)
		case op < 75:
			if n := len(ref[sid]); n > 0 {
				k := rng.IntN(n)
				tab.truncate(sid, k)
				if k == 0 {
					delete(ref, sid)
				} else {
					ref[sid] = ref[sid][:k]
				}
			}
		case op < 90:
			tab.drop(sid)
			delete(ref, sid)
		case op < 95:
			saved = tab.clone()
			savedRef = map[int64][]int64{}
			for k, v := range ref {
				savedRef[k] = slices.Clone(v)
			}
		case savedRef != nil && op < 98:
			tab = saved.clone()
			ref = map[int64][]int64{}
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
}

// overflowRef derives the reverse-overflow reference from the forward map
// alone: slot → the logical units mapping to it other than its primary.
func overflowRef(f *FTL) map[int64][]int64 {
	ref := map[int64][]int64{}
	for lun, sid := range f.l2p {
		if sid >= 0 && f.rev[sid] != int64(lun) {
			ref[sid] = append(ref[sid], int64(lun))
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

// TestRemapTrimAllocs guards the checkpoint remap path: once the slot
// tables' pools have grown to a burst's size, remap bursts (each shares a
// journal slot, adding a reverse-overflow entry and an alias record) and
// the journal trim that follows (dropping the overflow entries) allocate
// nothing. Journal writes and GC run between the measured sections; their
// programs are guarded separately.
func TestRemapTrimAllocs(t *testing.T) {
	cfg := smallCfg()
	cfg.MetaFlushEntries = 1 << 30 // metadata flush paths measured separately
	e, f := newSmall(t, cfg)
	unit := int64(f.unit)
	const journalUnits, dataBase, burst = 16, 64, 4

	const warm, cycles = 20, 60
	// The persisted trim-extent log gains one record per Trim, by design
	// unbounded; pre-size it so only the slot tables are under test.
	f.rlog.trims = slices.Grow(f.rlog.trims, warm+cycles)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
}
