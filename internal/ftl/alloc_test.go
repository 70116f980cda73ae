package ftl

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// Alloc-regression guards for the FTL steady state. The budget per path:
//
//   - a host write is allocation-free, whether it stays in the page buffer
//     or completes a page: a page program is a completion instant, not an
//     object;
//   - reads of unmapped or still-buffered data are allocation-free;
//   - a read hitting flash, and a write whose read-modify-write reads
//     flash, are allocation-free with a caller-owned fan-in (the device
//     embeds it in the command record), however many pages they span.
//
// Anything above these bounds is a regression in the pooled scratch
// machinery (epoch tables, victim index) or a per-operation future put
// back into the nand or FTL path.
func TestFTLSteadyStateAllocs(t *testing.T) {
	cfg := smallCfg()
	cfg.MetaFlushEntries = 1 << 30 // metadata flush paths measured separately
	e, f := newSmall(t, cfg)
	unit := int64(f.unit)

	// Warm up: map a few pages' worth of luns, program them, and run a GC
	// cycle so every pooled buffer and the event heap reach steady-state
	// capacity.
	for lun := int64(0); lun < 64; lun++ {
		f.Write(lun*unit, unit, TagHostData, StreamData)
	}
	f.Sync(StreamData, TagHostData)
	e.Run()
	f.BackgroundGCForce(2)
	e.Run()

	// Buffered overwrite: stay strictly inside one page (slotsPerPage
	// appends would program it), overwriting already-mapped luns.
	spp := int64(f.slotsPerPage)
	if n := testing.AllocsPerRun(100, func() {
		f.Write(0, unit, TagHostData, StreamData)
		if len(f.fronts[StreamData][f.partial[StreamData]].fillLSNs) == int(spp)-1 {
			// drain the page boundary outside the measured region by
			// padding with one more overwrite, then letting it program
			f.Write(unit, unit, TagHostData, StreamData)
			e.Run()
		}
	}); n != 0 {
		t.Fatalf("buffered write path allocates %.2f/op, want 0", n)
	}

	// A full page of writes: the page program allocates nothing.
	if n := testing.AllocsPerRun(50, func() {
		for i := int64(0); i < spp; i++ {
			f.Write(i*unit, unit, TagHostData, StreamData)
		}
		e.Run()
	}); n != 0 {
		t.Fatalf("page-filling write burst allocates %.2f, want 0", n)
	}

	// Unmapped read: zero-fill completes on the engine's shared future.
	holeOff := f.logicalBytes - 8*unit
	if n := testing.AllocsPerRun(100, func() {
		f.Read(holeOff, 4*unit)
	}); n != 0 {
		t.Fatalf("unmapped read allocates %.2f/op, want 0", n)
	}

	// Buffered read: data still in the controller page buffer.
	f.Write(0, unit, TagHostData, StreamData)
	if n := testing.AllocsPerRun(100, func() {
		f.Read(0, unit)
	}); n != 0 {
		t.Fatalf("buffered read allocates %.2f/op, want 0", n)
	}
	f.Sync(StreamData, TagHostData)
	e.Run()

	// Flash read spanning a whole page of units, and a partial overwrite of
	// a flash-resident unit (one read-modify-write read), each joined in a
	// caller-owned fan-in.
	var fan sim.FanIn
	if n := testing.AllocsPerRun(100, func() {
		fan = sim.FanIn{}
		fan.Init(e)
		f.ReadInto(8*unit, spp*unit, &fan)
		fan.Close()
		e.Run()
	}); n != 0 {
		t.Fatalf("flash read allocates %.2f/op, want 0", n)
	}
	if !fan.Done() {
		t.Fatal("flash read never completed")
	}
	reads := f.Array().Stats().Reads
	if n := testing.AllocsPerRun(100, func() {
		fan = sim.FanIn{}
		fan.Init(e)
		f.WriteInto(8*unit+100, 100, TagHostData, StreamData, &fan)
		fan.Close()
		e.Run()
		f.SyncInto(StreamData, TagHostData, nil) // program the page: the next write reads flash again
		e.Run()
	}); n != 0 {
		t.Fatalf("read-modify-write allocates %.2f/op, want 0", n)
	}
	if f.Array().Stats().Reads == reads {
		t.Fatal("partial overwrite never read flash")
	}

	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncAllocs locks in that a no-op durability barrier (everything
// already programmed and completed) is allocation-free: Sync returns the
// engine's shared completed future.
func TestSyncAllocs(t *testing.T) {
	cfg := smallCfg()
	e, f := newSmall(t, cfg)
	unit := int64(f.unit)
	for lun := int64(0); lun < 16; lun++ {
		f.Write(lun*unit, unit, TagHostData, StreamData)
	}
	f.Sync(StreamData, TagHostData)
	e.Run()
	if n := testing.AllocsPerRun(100, func() {
		f.Sync(StreamData, TagHostData)
		e.Run()
	}); n != 0 {
		t.Fatalf("idle Sync allocates %.2f/op, want 0", n)
	}
}
