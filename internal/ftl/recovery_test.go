package ftl

import (
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
	for sid := int64(0); sid < int64(len(r.oob)); sid++ {
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
