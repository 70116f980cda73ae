package ssd

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

type nandGeometry = nand.Geometry

func mustArray(t *testing.T, e *sim.Engine, geo nand.Geometry) *nand.Array {
	t.Helper()
	arr, err := nand.New(e, geo, nand.Timing{
		ReadPage: 50 * sim.Microsecond, ProgramPage: 500 * sim.Microsecond,
		EraseBlock: 3 * sim.Millisecond, CmdOverhead: sim.Microsecond, ChannelMBps: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestPressureBackgroundGC(t *testing.T) {
	// A small device under sustained overwrites must reclaim via the
	// deallocator's pressure path even with no idle windows.
	e, d := testDevice(t, func(c *Config) {
		c.DeallocatorPeriod = 2 * sim.Millisecond
		c.BackgroundGCBatch = 2
	})
	// Keep the array busy with continuous overwrites of a hot range.
	stop := false
	e.Go("writer", func(p *sim.Proc) {
		for i := 0; !stop && i < 100000; i++ {
			p.Wait(d.Write(int64(i%64)*4096, 4096, AreaData))
			if i%64 == 63 {
				p.Wait(d.Flush(AreaData))
			}
		}
	})
	for i := 0; i < 300 && d.FTL().Stats().GCInvocations+d.FTL().Stats().DeadReclaims == 0; i++ {
		e.RunUntil(e.Now() + 10*sim.Millisecond)
	}
	stop = true
	e.RunUntil(e.Now() + 50*sim.Millisecond)
	if d.FTL().Stats().GCInvocations+d.FTL().Stats().DeadReclaims == 0 {
		t.Error("no reclamation under sustained pressure")
	}
}

func TestMultiCoWUsesCache(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Write(0, 8192, AreaJournal) // journal resident in DRAM cache
	e.Run()
	preReads := d.FTL().Array().Stats().Reads
	mf := d.MultiCoW([]CoWPair{
		{Src: 0, Dst: 131072, Len: 4096},
		{Src: 4096, Dst: 131072 + 4096, Len: 4096},
	})
	e.Run()
	if !mf.Done() {
		t.Fatal("MultiCoW never completed")
	}
	if got := d.FTL().Array().Stats().Reads - preReads; got != 0 {
		t.Errorf("cached MultiCoW did %d flash reads, want 0", got)
	}
}

func TestCheckpointRequestUsesCacheForRMW(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Write(0, 4096, AreaJournal)
	e.Run()
	preReads := d.FTL().Array().Stats().Reads
	// Unaligned source forces RMW, but the source sits in the DRAM cache.
	cf := d.CheckpointRequest([]RemapEntry{{Src: 100, Dst: 131072, Len: 1024}})
	e.Run()
	if !cf.Done() {
		t.Fatal("checkpoint request never completed")
	}
	if got := d.FTL().Array().Stats().Reads - preReads; got != 0 {
		t.Errorf("cached RMW did %d flash reads, want 0", got)
	}
}

func TestDeviceSPORPassthrough(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Write(0, 8192, AreaData)
	e.Run()
	d.Flush(AreaData)
	e.Run()
	rep := d.SimulateSPOR()
	if rep.Mismatches != 0 {
		t.Fatalf("device SPOR diverged: %s", rep)
	}
	if rep.BoundUnits == 0 {
		t.Error("device SPOR rebuilt nothing")
	}
}

func TestWearLevelingFromDeallocator(t *testing.T) {
	e := sim.NewEngine()
	// Direct FTL access to configure the threshold.
	geo := testGeoSmall()
	arr := mustArray(t, e, geo)
	fcfg := testFTLConfig(geo.PageSize)
	fcfg.Parallelism = 2
	fcfg.WearDeltaThreshold = 2
	f, err := ftl.New(e, arr, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := testConfig()
	dcfg.DeallocatorPeriod = 2 * sim.Millisecond
	d, err := New(e, f, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cold range once, then hot overwrites with idle gaps so the
	// deallocator's wear-level branch runs.
	d.Write(262144, 32768, AreaData)
	e.RunUntil(e.Now() + 50*sim.Millisecond)
	for i := 0; i < 150; i++ {
		d.Write(0, 8192, AreaData)
		d.Flush(AreaData)
		e.RunUntil(e.Now() + 20*sim.Millisecond) // idle window each round
	}
	if f.WearStats().Moves == 0 {
		t.Error("deallocator never wear-leveled despite idle windows and spread")
	}
}

// test helpers shared by the extra tests

func testGeoSmall() nandGeometry {
	return nandGeometry{
		Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 1, PlanesPerDie: 1,
		BlocksPerPlane: 32, PagesPerBlock: 16, PageSize: 4096,
	}
}
