package fsim

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
)

func newStack(t *testing.T) (*sim.Engine, *ssd.Device) {
	t.Helper()
	e := sim.NewEngine()
	geo := nand.Geometry{
		Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 2, PlanesPerDie: 2,
		BlocksPerPlane: 64, PagesPerBlock: 32, PageSize: 4096,
	}
	tim := nand.Timing{
		ReadPage: 50 * sim.Microsecond, ProgramPage: 500 * sim.Microsecond,
		EraseBlock: 3 * sim.Millisecond, CmdOverhead: sim.Microsecond, ChannelMBps: 400,
	}
	arr, err := nand.New(e, geo, tim)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := ftl.DefaultConfig()
	fcfg.UnitSize = 4096
	fcfg.OverProvision = 0.2
	fcfg.Parallelism = 4
	fcfg.MapCacheBytes = 32 << 20
	fcfg.MetaFlushEntries = geo.PageSize / 8
	f, err := ftl.New(e, arr, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := ssd.DefaultConfig()
	dcfg.QueueDepth = 64
	dcfg.PCIeMBps = 3200
	dcfg.CacheBytes = 2 << 20
	dcfg.DeallocatorPeriod = 0
	d, err := ssd.New(e, f, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Files = 8
	cfg.BlocksPerFile = 16
	cfg.JournalBytes = 2 << 20
	cfg.CkptEveryBytes = 1 << 20
	return cfg
}

func runProc(e *sim.Engine, fn func(p *sim.Proc)) {
	done := false
	e.Go("test", func(p *sim.Proc) { fn(p); done = true })
	for !done {
		e.RunUntil(e.Now() + 50*sim.Millisecond)
	}
}

func TestNewValidation(t *testing.T) {
	e, d := newStack(t)
	_ = e
	bad := smallCfg()
	bad.Files = 0
	if _, err := New(e, d, bad, ModeConventional); err == nil {
		t.Error("zero files accepted")
	}
	bad = smallCfg()
	bad.BlockSize = 1000 // not a unit multiple
	if _, err := New(e, d, bad, ModeConventional); err == nil {
		t.Error("unaligned block size accepted")
	}
	bad = smallCfg()
	bad.JournalBytes = bad.CkptEveryBytes
	if _, err := New(e, d, bad, ModeConventional); err == nil {
		t.Error("journal smaller than 2x checkpoint threshold accepted")
	}
	bad = smallCfg()
	bad.Files = 100_000
	if _, err := New(e, d, bad, ModeConventional); err == nil {
		t.Error("oversized layout accepted")
	}
	if ModeConventional.String() != "conventional" || ModeInStorage.String() != "in-storage" {
		t.Error("mode names wrong")
	}
}

func TestWriteReadCheckpointCycle(t *testing.T) {
	for _, mode := range []Mode{ModeConventional, ModeInStorage} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e, d := newStack(t)
			fs, err := New(e, d, smallCfg(), mode)
			if err != nil {
				t.Fatal(err)
			}
			runProc(e, func(p *sim.Proc) {
				fs.Format(p)
				for i := 0; i < 300; i++ {
					fs.WriteBlock(p, int64(i%40))
					if i%7 == 0 {
						fs.ReadBlock(p, int64(i%40))
					}
				}
				fs.Checkpoint(p)
			})
			if err := fs.Validate(); err != nil {
				t.Fatal(err)
			}
			st := fs.Stats()
			if st.BlockWrites != 300 {
				t.Errorf("BlockWrites = %d", st.BlockWrites)
			}
			if st.Checkpoints == 0 || st.CkptBlocks == 0 {
				t.Errorf("no checkpoints happened: %+v", st)
			}
			if fs.CheckpointTime() == 0 {
				t.Error("checkpoint time not accounted")
			}
		})
	}
}

func TestInStorageModeAvoidsCheckpointPrograms(t *testing.T) {
	// 4 KB blocks on a 4 KB mapping unit: in-storage checkpointing should
	// be pure remapping — near-zero checkpoint-tagged programs — while
	// conventional mode rewrites every dirty block.
	programs := map[Mode]uint64{}
	ckptTime := map[Mode]sim.VTime{}
	for _, mode := range []Mode{ModeConventional, ModeInStorage} {
		e, d := newStack(t)
		fs, err := New(e, d, smallCfg(), mode)
		if err != nil {
			t.Fatal(err)
		}
		runProc(e, func(p *sim.Proc) {
			fs.Format(p)
			for i := 0; i < 500; i++ {
				fs.WriteBlock(p, int64(i%64))
			}
			fs.Checkpoint(p)
		})
		if err := fs.Validate(); err != nil {
			t.Fatal(err)
		}
		programs[mode] = d.FTL().Stats().ProgramsByTag[ftl.TagCheckpoint]
		ckptTime[mode] = fs.CheckpointTime()
	}
	if programs[ModeInStorage] != 0 {
		t.Errorf("in-storage checkpoint programmed %d pages, want 0 (pure remap)", programs[ModeInStorage])
	}
	if programs[ModeConventional] == 0 {
		t.Error("conventional checkpoint did no rewrites")
	}
	if ckptTime[ModeInStorage]*2 > ckptTime[ModeConventional] {
		t.Errorf("in-storage checkpoint time %v not ≪ conventional %v",
			ckptTime[ModeInStorage], ckptTime[ModeConventional])
	}
}

func TestJournalFullForcesCheckpoint(t *testing.T) {
	e, d := newStack(t)
	cfg := smallCfg()
	cfg.CkptEveryBytes = 1 << 20
	cfg.JournalBytes = 2 << 20
	fs, err := New(e, d, cfg, ModeInStorage)
	if err != nil {
		t.Fatal(err)
	}
	runProc(e, func(p *sim.Proc) {
		fs.Format(p)
		// 1 MB / 4 KB = 256 writes per checkpoint threshold.
		for i := 0; i < 1000; i++ {
			fs.WriteBlock(p, int64(i%100))
		}
	})
	if fs.Stats().Checkpoints < 3 {
		t.Errorf("Checkpoints = %d, want several", fs.Stats().Checkpoints)
	}
	if err := fs.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBlockOutOfRangePanics(t *testing.T) {
	e, d := newStack(t)
	fs, err := New(e, d, smallCfg(), ModeConventional)
	if err != nil {
		t.Fatal(err)
	}
	runProc(e, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range block write did not panic")
			}
		}()
		fs.WriteBlock(p, fs.Blocks())
	})
}

func TestFSSPORConsistency(t *testing.T) {
	// After file traffic and checkpoints, the device's own OOB recovery
	// must reconstruct the mapping table exactly.
	e, d := newStack(t)
	fs, err := New(e, d, smallCfg(), ModeInStorage)
	if err != nil {
		t.Fatal(err)
	}
	runProc(e, func(p *sim.Proc) {
		fs.Format(p)
		for i := 0; i < 400; i++ {
			fs.WriteBlock(p, int64(i%50))
		}
		fs.Checkpoint(p)
	})
	rep := d.SimulateSPOR()
	if rep.Mismatches != 0 {
		t.Fatalf("SPOR diverged under file traffic: %s", rep)
	}
}
