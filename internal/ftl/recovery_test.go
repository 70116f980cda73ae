package ftl

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"github.com/checkin-kv/checkin/internal/sim"
)

func TestSPOREmptyDevice(t *testing.T) {
	_, f := newSmall(t, smallCfg())
	rep := f.SimulateSPOR()
	if rep.Mismatches != 0 || rep.BoundUnits != 0 || rep.ScannedPages != 0 {
		t.Errorf("empty-device SPOR = %+v", rep)
	}
}

func TestSPORAfterWrites(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	f.Write(0, 8192, TagHostData, StreamData)
	f.Sync(StreamData, TagHostData)
	e.Run()
	rep := f.SimulateSPOR()
	if rep.Mismatches != 0 {
		t.Fatalf("SPOR mismatches after plain writes: %s", rep)
	}
	if rep.BoundUnits != 16 {
		t.Errorf("BoundUnits = %d, want 16", rep.BoundUnits)
	}
	if rep.ScannedPages == 0 || rep.Duration == 0 {
		t.Error("SPOR scan cost not modeled")
	}
}

func TestSPORAfterOverwrites(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	for i := 0; i < 5; i++ {
		f.Write(0, 4096, TagHostData, StreamData)
		f.Sync(StreamData, TagHostData)
		e.Run()
	}
	rep := f.SimulateSPOR()
	if rep.Mismatches != 0 {
		t.Fatalf("SPOR diverged after overwrites: %s", rep)
	}
}

func TestSPORAfterRemapAndTrim(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	const dataOff = 65536
	f.Write(0, 4096, TagHostJournal, StreamJournal)
	f.Sync(StreamJournal, TagHostJournal)
	e.Run()
	f.Remap(0, dataOff, 4096)
	e.Run()
	// Mid-checkpoint crash: shared mappings must rebuild.
	rep := f.SimulateSPOR()
	if rep.Mismatches != 0 {
		t.Fatalf("SPOR diverged mid-checkpoint: %s", rep)
	}
	if rep.AliasBindings == 0 {
		t.Error("remap produced no alias bindings in the recovery log")
	}
	// After the journal trim the aliases must survive and the journal
	// bindings must not resurrect.
	f.Trim(0, 4096)
	rep = f.SimulateSPOR()
	if rep.Mismatches != 0 {
		t.Fatalf("SPOR diverged after trim: %s", rep)
	}
	if rep.TrimsReplayed == 0 {
		t.Error("trim extent not replayed")
	}
}

// TestSPORMutations plants one fault at a time in the recovery log of a
// device whose rebuild is exact and checks that VerifySPOR reports exactly
// the mismatches the fault causes, so a rebuild that bound nothing, or
// skipped aliases or trims, fails here. The device holds journal units 0-7
// (two pages), units 0-3 remapped to data units 64-67, units 4-7 trimmed,
// then data units 16-19 written: 12 bound units, 4 alias bindings, 1 trim.
// Each unit whose rebuilt entry differs from the live one counts once.
func TestSPORMutations(t *testing.T) {
	const unit, dataLun = 512, 64
	e, f := newSmall(t, smallCfg())
	f.Write(0, 8*unit, TagHostJournal, StreamJournal)
	f.Sync(StreamJournal, TagHostJournal)
	e.Run()
	f.Remap(0, dataLun*unit, 4*unit)
	f.Trim(4*unit, 4*unit)
	f.Write(16*unit, 4*unit, TagHostData, StreamData)
	f.Sync(StreamData, TagHostData)
	e.Run()
	clean := SPORReport{ScannedPages: 3, BoundUnits: 12, AliasBindings: 4, TrimsReplayed: 1}
	if rep := *f.VerifySPOR(); rep != clean {
		t.Fatalf("unplanted device: %+v, want %+v", rep, clean)
	}

	for _, tc := range []struct {
		name  string
		plant func(f *FTL)
		want  SPORReport
	}{{
		// Unit 16's OOB names unit 17, whose own record is newer: unit 16
		// loses its only binding, unit 17 keeps its own.
		name:  "wrong OOB lun, named unit newer",
		plant: func(f *FTL) { f.rlog.oobLun.set(int64(f.l2p.at(16)), 17) },
		want:  SPORReport{ScannedPages: 3, BoundUnits: 11, AliasBindings: 4, TrimsReplayed: 1, Mismatches: 1},
	}, {
		// Unit 16's OOB names never-written unit 300: unit 16 is lost and
		// unit 300 gains a binding the live table lacks.
		name:  "wrong OOB lun, named unit unmapped",
		plant: func(f *FTL) { f.rlog.oobLun.set(int64(f.l2p.at(16)), 300) },
		want:  SPORReport{ScannedPages: 3, BoundUnits: 12, AliasBindings: 4, TrimsReplayed: 1, Mismatches: 2},
	}, {
		// Data unit 64 loses its alias record: nothing rebinds it.
		name:  "dropped alias record",
		plant: func(f *FTL) { f.rlog.dropAliases(int64(f.l2p.at(dataLun))) },
		want:  SPORReport{ScannedPages: 3, BoundUnits: 11, AliasBindings: 3, TrimsReplayed: 1, Mismatches: 1},
	}, {
		// Without the trim, journal units 4-7 rebind to their old slots.
		name:  "dropped trim extent",
		plant: func(f *FTL) { f.rlog.trims = f.rlog.trims[:0] },
		want:  SPORReport{ScannedPages: 3, BoundUnits: 16, AliasBindings: 4, Mismatches: 4},
	}} {
		g, err := Fork(e, f.array, f)
		if err != nil {
			t.Fatal(err)
		}
		tc.plant(g)
		if rep := *g.VerifySPOR(); rep != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, rep, tc.want)
		}
	}
}

// sporMapRebuild is the rebuild VerifySPOR made before its per-unit
// scratch slices: candidate bindings in a map keyed by logical unit,
// counting each unit whose rebuilt entry differs from the live one once. It
// covers the data mapping only (no translation directory).
func sporMapRebuild(f *FTL) SPORReport {
	var rep SPORReport
	type binding struct {
		sid int64
		seq uint64
	}
	rebuilt := map[int64]binding{}
	bind := func(lun, sid int64, seq uint64) {
		if b, ok := rebuilt[lun]; !ok || seq > b.seq {
			rebuilt[lun] = binding{sid: sid, seq: seq}
		}
	}
	slotsPerBlock := int64(f.pagesPerBlk * f.slotsPerPage)
	for b := 0; b < f.totalBlocks; b++ {
		programmed := f.array.ProgrammedPages(b)
		rep.ScannedPages += programmed
		base := f.slotID(b, 0, 0)
		for sid := base; sid < base+slotsPerBlock && f.slotPage(sid) < programmed; sid++ {
			if seq := f.rlog.oobSeq.at(sid); seq != 0 {
				bind(int64(f.rlog.oobLun.at(sid)), sid, seq)
			}
			for _, rec := range f.rlog.aliasesOf(sid) {
				bind(rec.lun, sid, rec.seq)
				rep.AliasBindings++
			}
		}
	}
	for _, tr := range f.rlog.trims {
		rep.TrimsReplayed++
		for lun := tr.first; lun <= tr.last; lun++ {
			if b, ok := rebuilt[lun]; ok && b.seq < tr.seq {
				delete(rebuilt, lun)
			}
		}
	}
	for lun, sid := range f.l2p.all() {
		got := int64(-1)
		if b, ok := rebuilt[int64(lun)]; ok {
			got = b.sid
		}
		if want := int64(sid); want != got {
			if want >= 0 && f.isBuffered(want) {
				rep.VolatileLost++
			} else {
				rep.Mismatches++
			}
		}
	}
	rep.BoundUnits = int64(len(rebuilt))
	return rep
}

// TestVerifySPORMatchesMapRebuild drives random writes, remaps, trims and
// GC, leaving some slots staged, then plants random recovery-log faults, and
// checks after each step that VerifySPOR's report equals the map-based
// rebuild's field for field, faults and volatile losses included.
func TestVerifySPORMatchesMapRebuild(t *testing.T) {
	const unit = 512
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 42))
		e, f := newSmall(t, smallCfg())
		units := f.LogicalBytes() / unit
		compare := func(step string) {
			t.Helper()
			if got, want := *f.VerifySPOR(), sporMapRebuild(f); got != want {
				t.Fatalf("seed %d, %s: dense rebuild %+v, map rebuild %+v", seed, step, got, want)
			}
		}
		for step := 0; step < 600; step++ {
			lun := rng.Int64N(units - 8)
			switch op := rng.IntN(20); {
			case op < 14:
				f.Write(lun*unit, unit*(1+rng.Int64N(3)), TagHostData, StreamData)
			case op < 17:
				// Source in the lower half, destination in the upper: a
				// remap onto its own source is not a checkpoint.
				half := units / 2
				f.Remap((lun%(half-4))*unit, (half+rng.Int64N(half-8))*unit, unit*(1+rng.Int64N(4)))
			case op < 19:
				f.Trim(lun*unit, unit*(1+rng.Int64N(4)))
			default:
				f.Sync(StreamData, TagHostData)
			}
			e.Run()
			compare(fmt.Sprintf("step %d", step))
		}
		if f.Stats().GCInvocations == 0 || f.Stats().Remaps == 0 {
			t.Fatalf("seed %d: run missed a path: %d collections, %d remaps", seed, f.Stats().GCInvocations, f.Stats().Remaps)
		}
		for fault := 0; fault < 20; fault++ {
			sid := rng.Int64N(f.rlog.oobSeq.len())
			switch rng.IntN(3) {
			case 0:
				f.rlog.oobLun.set(sid, int32(rng.Int64N(units)))
			case 1:
				f.rlog.dropAliases(sid)
			default:
				if n := len(f.rlog.trims); n > 0 {
					i := rng.IntN(n)
					f.rlog.trims = append(f.rlog.trims[:i], f.rlog.trims[i+1:]...)
				}
			}
			compare(fmt.Sprintf("fault %d", fault))
		}
		if f.VerifySPOR().Mismatches == 0 {
			t.Fatalf("seed %d: twenty planted faults left the rebuild exact", seed)
		}
	}
}

func TestSPORAfterGC(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	for i := 0; i < 100; i++ {
		f.Write(0, 8192, TagHostData, StreamData)
		e.Run()
	}
	f.Sync(StreamData, TagHostData)
	e.Run()
	if f.Stats().GCInvocations+f.Stats().DeadReclaims == 0 {
		t.Fatal("test needs GC activity")
	}
	rep := f.SimulateSPOR()
	if rep.Mismatches != 0 {
		t.Fatalf("SPOR diverged across GC migrations: %s", rep)
	}
}

func TestSPORRandomTraffic(t *testing.T) {
	// Property: after arbitrary write/trim/remap interleavings the OOB
	// rebuild reproduces the mapping table exactly.
	err := quick.Check(func(ops []uint16) bool {
		e, f := newSmall(t, smallCfg())
		units := f.LogicalBytes() / 512
		for _, op := range ops {
			lun := int64(op) % (units - 8)
			switch op % 4 {
			case 0, 1:
				f.Write(lun*512, 512*int64(1+op%3), TagHostData, StreamData)
			case 2:
				f.Trim(lun*512, 512)
			case 3:
				dst := (lun + 4) % (units - 4)
				f.Remap(lun*512, dst*512, 512)
			}
			e.Run()
		}
		f.Sync(StreamData, TagHostData)
		e.Run()
		return f.SimulateSPOR().Mismatches == 0
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

// aliasedSlots lists the slots with alias records, ascending, probing every
// slot rather than trusting the table's own iteration.
func aliasedSlots(r *recoveryLog) []int64 {
	var sids []int64
	for sid := int64(0); sid < r.oobSeq.len(); sid++ {
		if r.aliases.get(sid) != nil {
			sids = append(sids, sid)
		}
	}
	return sids
}

// TestRestoreRebuildsAliasIndex pins the alias table's fork: a fork of a
// saved FTL must hold exactly the saved log's alias slots, whatever the
// live FTL remapped since, and a fork of an alias-free FTL none at all (no
// index chunk either). The explicit slot lists pin it without relying on
// the checker; the tail plants a dangling index and expects
// CheckInvariants to reject it.
func TestRestoreRebuildsAliasIndex(t *testing.T) {
	const dataOff = 65536
	e, f := newSmall(t, smallCfg())
	save := func(src *FTL) *FTL {
		t.Helper()
		saved, err := Fork(e, src.array, src)
		if err != nil {
			t.Fatal(err)
		}
		return saved
	}
	f.Write(0, 8192, TagHostJournal, StreamJournal)
	f.Sync(StreamJournal, TagHostJournal)
	e.Run()
	clean := save(f) // no remaps yet: an empty alias log
	f.Remap(0, dataOff, 4096)
	e.Run()
	aliased := save(f) // the first 4 KB's slots carry aliases
	want := aliasedSlots(f.rlog)
	if len(want) == 0 {
		t.Fatal("remap set no alias entries")
	}

	// The live FTL moves on: remap a different extent, so it holds slots
	// the aliased snapshot does not.
	f.Remap(4096, dataOff+4096, 4096)
	e.Run()
	if len(aliasedSlots(f.rlog)) <= len(want) {
		t.Fatal("second remap set no further alias entries")
	}
	f = save(aliased)
	if got := aliasedSlots(f.rlog); !slices.Equal(got, want) {
		t.Fatalf("restored alias slots %v, want exactly %v", got, want)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	f = save(clean)
	if got := aliasedSlots(f.rlog); len(got) != 0 || f.rlog.aliases.len() != 0 || f.rlog.aliases.chunkCount() != 0 {
		t.Fatalf("fork of an alias-free FTL holds slots %v, %d with records, %d chunks",
			got, f.rlog.aliases.len(), f.rlog.aliases.chunkCount())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The checker itself catches an overflow index naming no pooled slice.
	f.rlog.aliases.ovIdx.Set(0, int32(len(f.rlog.aliases.pool)+1))
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a dangling alias index")
	}
}

func TestSPORReportString(t *testing.T) {
	rep := &SPORReport{ScannedPages: 3, BoundUnits: 5, Duration: sim.Millisecond}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}
