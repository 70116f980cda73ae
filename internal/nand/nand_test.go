package nand

import (
	"testing"
	"testing/quick"

	"github.com/checkin-kv/checkin/internal/sim"
)

func testGeo() Geometry {
	return Geometry{
		Channels:           2,
		PackagesPerChannel: 1,
		DiesPerPackage:     2,
		PlanesPerDie:       2,
		BlocksPerPlane:     8,
		PagesPerBlock:      16,
		PageSize:           4096,
	}
}

func testTim() Timing {
	return Timing{
		ReadPage:    50 * sim.Microsecond,
		ProgramPage: 500 * sim.Microsecond,
		EraseBlock:  3 * sim.Millisecond,
		CmdOverhead: 1 * sim.Microsecond,
		ChannelMBps: 400,
	}
}

func newTestArray(t *testing.T, e *sim.Engine) *Array {
	t.Helper()
	a, err := New(e, testGeo(), testTim())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryMath(t *testing.T) {
	g := testGeo()
	if g.TotalDies() != 4 {
		t.Errorf("TotalDies = %d, want 4", g.TotalDies())
	}
	if g.BlocksPerDie() != 16 {
		t.Errorf("BlocksPerDie = %d, want 16", g.BlocksPerDie())
	}
	if g.TotalBlocks() != 64 {
		t.Errorf("TotalBlocks = %d, want 64", g.TotalBlocks())
	}
	if g.TotalPages() != 1024 {
		t.Errorf("TotalPages = %d, want 1024", g.TotalPages())
	}
	if g.TotalBytes() != 1024*4096 {
		t.Errorf("TotalBytes = %d", g.TotalBytes())
	}
}

func TestGeometryAddressMapping(t *testing.T) {
	g := testGeo()
	// Block 0 is die 0 plane 0; block 8 is die 0 plane 1; block 16 is die 1.
	if g.DieOfBlock(0) != 0 || g.DieOfBlock(15) != 0 || g.DieOfBlock(16) != 1 {
		t.Error("DieOfBlock wrong")
	}
	if g.PlaneOfBlock(0) != 0 || g.PlaneOfBlock(8) != 1 || g.PlaneOfBlock(17) != 0 {
		t.Error("PlaneOfBlock wrong")
	}
	// Dies stripe across channels.
	if g.ChannelOfDie(0) != 0 || g.ChannelOfDie(1) != 1 || g.ChannelOfDie(2) != 0 {
		t.Error("ChannelOfDie wrong")
	}
	if g.ChannelOfBlock(16) != 1 {
		t.Error("ChannelOfBlock wrong")
	}
}

func TestGeometryValidate(t *testing.T) {
	g := testGeo()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := g
	bad.PagesPerBlock = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero PagesPerBlock accepted")
	}
	badTim := testTim()
	badTim.ChannelMBps = 0
	if err := badTim.Validate(); err == nil {
		t.Error("zero ChannelMBps accepted")
	}
	if _, err := New(sim.NewEngine(), bad, testTim()); err == nil {
		t.Error("New accepted invalid geometry")
	}
	if _, err := New(sim.NewEngine(), g, badTim); err == nil {
		t.Error("New accepted invalid timing")
	}
}

func TestTransferTime(t *testing.T) {
	tim := testTim() // 400 MB/s → 4096 B = 10.24 µs
	got := tim.TransferTime(4096)
	if got != sim.VTime(4096*1000/400) {
		t.Errorf("TransferTime(4096) = %v", got)
	}
	if tim.TransferTime(0) != 0 || tim.TransferTime(-5) != 0 {
		t.Error("TransferTime of non-positive size should be 0")
	}
}

func TestProgramThenReadTiming(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)

	page, progDone := a.ProgramPage(0, 4096)
	if page != 0 {
		t.Fatalf("first program page = %d, want 0", page)
	}
	// transfer 10.24µs + cmd 1µs + prog 500µs
	wantProg := testTim().TransferTime(4096) + 1*sim.Microsecond + 500*sim.Microsecond
	if progDone != wantProg {
		t.Errorf("program done at %v, want %v", progDone, wantProg)
	}

	e.RunUntil(progDone)
	readDone := a.ReadPage(0, 0, 4096)
	wantRead := progDone + 1*sim.Microsecond + 50*sim.Microsecond + testTim().TransferTime(4096)
	if readDone != wantRead {
		t.Errorf("read done at %v, want %v", readDone, wantRead)
	}

	st := a.Stats()
	if st.Programs != 1 || st.Reads != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesProgrammed != 4096 || st.BytesRead != 4096 {
		t.Errorf("byte stats = %+v", st)
	}
}

func TestSequentialProgramRule(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	for i := 0; i < testGeo().PagesPerBlock; i++ {
		page, _ := a.ProgramPage(3, 4096)
		if page != i {
			t.Fatalf("program %d landed on page %d", i, page)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("programming past end of block did not panic")
		}
	}()
	a.ProgramPage(3, 4096)
}

func TestReadUnprogrammedPanics(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	defer func() {
		if recover() == nil {
			t.Error("reading unprogrammed page did not panic")
		}
	}()
	a.ReadPage(0, 0, 512)
}

func TestEraseResetsBlock(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	a.ProgramPage(5, 4096)
	_, programmed := a.ProgramPage(5, 4096)
	if a.ProgrammedPages(5) != 2 || a.IsErased(5) {
		t.Fatal("block state wrong after programs")
	}
	if done := a.EraseBlock(5); done != programmed+sim.Microsecond+3*sim.Millisecond {
		t.Errorf("erase done at %v, want tBERS after the programs end at %v", done, programmed)
	}
	if !a.IsErased(5) || a.ProgrammedPages(5) != 0 {
		t.Error("erase did not reset block")
	}
	if a.EraseCount(5) != 1 {
		t.Errorf("EraseCount = %d, want 1", a.EraseCount(5))
	}
	// Can program again from page 0.
	page, _ := a.ProgramPage(5, 4096)
	if page != 0 {
		t.Errorf("post-erase program page = %d, want 0", page)
	}
}

func TestDieContentionSerializes(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	// Blocks 0 and 1 share die 0: two programs must serialize on the die.
	_, t1 := a.ProgramPage(0, 4096)
	_, t2 := a.ProgramPage(1, 4096)
	if t2 < t1+500*sim.Microsecond {
		t.Errorf("programs on same die overlapped: %v then %v", t1, t2)
	}
	// Blocks on different dies overlap (die 0 and die 1 on different channels).
	b := newTestArray(t, sim.NewEngine())
	_, u1 := b.ProgramPage(0, 4096)  // die 0, channel 0
	_, u2 := b.ProgramPage(16, 4096) // die 1, channel 1
	if u1 != u2 {
		t.Errorf("programs on independent dies did not overlap: %v vs %v", u1, u2)
	}
}

func TestChannelContention(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	// Dies 0 and 2 share channel 0. Program transfers contend on the bus.
	_, t1 := a.ProgramPage(0, 4096)  // die 0
	_, t2 := a.ProgramPage(32, 4096) // die 2
	xfer := testTim().TransferTime(4096)
	// Second transfer starts after the first finishes on the bus, then
	// both program concurrently on their own dies.
	want2 := 2*xfer + 1*sim.Microsecond + 500*sim.Microsecond
	if t2 != want2 {
		t.Errorf("second program done at %v, want %v", t2, want2)
	}
	if t1 >= t2 {
		t.Errorf("ordering wrong: %v vs %v", t1, t2)
	}
}

func TestIdleDetection(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	if !a.AllDiesIdleAt(0) {
		t.Error("fresh array not idle")
	}
	_, done := a.ProgramPage(0, 4096)
	if a.DieIdleAt(0, 0) {
		t.Error("die 0 should be busy during program")
	}
	if a.DieIdleAt(16, 0) != true {
		t.Error("die 1 should be idle")
	}
	if a.AllDiesIdleAt(done-1) || !a.AllDiesIdleAt(done) {
		t.Error("array should turn idle exactly when the program finishes")
	}
}

func TestEraseCounts(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	for i := 0; i < 10; i++ {
		a.EraseBlock(0)
	}
	a.EraseBlock(1)
	e.Run()
	if a.TotalErases() != 11 {
		t.Errorf("TotalErases = %d, want 11", a.TotalErases())
	}
	if a.MaxEraseCount() != 10 {
		t.Errorf("MaxEraseCount = %d, want 10", a.MaxEraseCount())
	}
}

func TestAddrRangeChecks(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	for _, fn := range []func(){
		func() { a.ProgramPage(-1, 512) },
		func() { a.ProgramPage(64, 512) },
		func() { a.ReadPage(0, -1, 512) },
		func() { a.ReadPage(0, 16, 512) },
		func() { a.EraseBlock(9999) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range address did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPartialPageSizesClamp(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	a.ProgramPage(0, 512) // small program counts 512 bytes
	if a.Stats().BytesProgrammed != 512 {
		t.Errorf("BytesProgrammed = %d, want 512", a.Stats().BytesProgrammed)
	}
	a.ProgramPage(0, 1<<20) // oversized clamps to page size
	if a.Stats().BytesProgrammed != 512+4096 {
		t.Errorf("BytesProgrammed = %d, want %d", a.Stats().BytesProgrammed, 512+4096)
	}
	e.Run()
}

func TestBusyTotals(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	a.ProgramPage(0, 4096)
	e.Run()
	if a.DieBusyTotal(0) == 0 {
		t.Error("die 0 busy total should be positive")
	}
	if a.ChannelBusyTotal(0) == 0 {
		t.Error("channel 0 busy total should be positive")
	}
	if a.DieBusyTotal(1) != 0 {
		t.Error("die 1 busy total should be zero")
	}
}

func TestGeometryPropertyBlockMappingInRange(t *testing.T) {
	g := testGeo()
	err := quick.Check(func(b uint16) bool {
		block := int(b) % g.TotalBlocks()
		die := g.DieOfBlock(block)
		ch := g.ChannelOfBlock(block)
		plane := g.PlaneOfBlock(block)
		return die >= 0 && die < g.TotalDies() &&
			ch >= 0 && ch < g.Channels &&
			plane >= 0 && plane < g.PlanesPerDie
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestEnergyAccounting(t *testing.T) {
	e := sim.NewEngine()
	tim := testTim().WithDefaultEnergy()
	a, err := New(e, testGeo(), tim)
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyNJ() != 0 {
		t.Error("fresh array consumed energy")
	}
	a.ProgramPage(0, 4096)
	a.ReadPage(0, 0, 4096)
	a.EraseBlock(0)
	e.Run()
	want := tim.ProgramEnergyNJ + tim.ReadEnergyNJ + tim.EraseEnergyNJ
	if got := a.EnergyNJ(); got != want {
		t.Errorf("EnergyNJ = %d, want %d", got, want)
	}
	// With zero per-op energies reporting is disabled (0).
	b, _ := New(sim.NewEngine(), testGeo(), testTim())
	b.ProgramPage(0, 4096)
	if b.EnergyNJ() != 0 {
		t.Error("energy reported with unset per-op costs")
	}
}

func TestReserveDie(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	end1 := a.ReserveDie(0, 100*sim.Microsecond)
	end2 := a.ReserveDie(0, 100*sim.Microsecond) // same die: serializes
	if end2 != end1+100*sim.Microsecond {
		t.Errorf("same-die reservations did not serialize: %v then %v", end1, end2)
	}
	end3 := a.ReserveDie(16, 100*sim.Microsecond) // die 1: independent
	if end3 != 100*sim.Microsecond {
		t.Errorf("independent die reservation = %v", end3)
	}
	defer func() {
		if recover() == nil {
			t.Error("ReserveDie out of range did not panic")
		}
	}()
	a.ReserveDie(-1, sim.Microsecond)
}
