package ftl

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// fullGeo is the default experiment geometry (512 MB raw): 4 channels ×
// 2 dies × 2 planes × 128 blocks × 64 pages × 4 KB = 2048 blocks, so a
// linear victim scan walks 2048 entries per pick.
func fullGeo() nand.Geometry {
	return nand.Geometry{
		Channels: 4, PackagesPerChannel: 1, DiesPerPackage: 2, PlanesPerDie: 2,
		BlocksPerPlane: 128, PagesPerBlock: 64, PageSize: 4096,
	}
}

// benchRNG is a tiny deterministic xorshift generator: benchmark inputs must
// not depend on math/rand's global state or version-dependent algorithms.
type benchRNG uint64

func (r *benchRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = benchRNG(x)
	return x
}

// gcHeavyState is one preconditioned FTL ready for steady-state overwrites.
type gcHeavyState struct {
	eng  *sim.Engine
	f    *FTL
	rng  benchRNG
	luns int64
}

func newGCHeavyState(tb testing.TB, policy GCPolicy) *gcHeavyState {
	tb.Helper()
	eng := sim.NewEngine()
	arr, err := nand.New(eng, fullGeo(), nand.Timing{
		ReadPage:    50 * sim.Microsecond,
		ProgramPage: 500 * sim.Microsecond,
		EraseBlock:  3 * sim.Millisecond,
		CmdOverhead: 1 * sim.Microsecond,
		ChannelMBps: 400,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.UnitSize = 512
	cfg.OverProvision = 0.12
	cfg.Parallelism = 4
	cfg.MetaFlushEntries = fullGeo().PageSize / 8
	cfg.GCPolicy = policy
	cfg.MapCacheBytes = 1 << 30 // isolate GC + mapping work from the miss model
	// At ~full utilization the GC stream needs more headroom than the
	// defaults: foreground GC opens its own frontier blocks before each
	// victim's erase returns a block to the pool.
	cfg.GCLowWater = 8
	cfg.GCHighWater = 16
	f, err := New(eng, arr, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	luns := f.LogicalBytes() / int64(f.UnitSize())
	luns -= luns / 50 // 98% fill: high utilization with a sliver of slack
	s := &gcHeavyState{eng: eng, f: f, rng: 0x9e3779b97f4a7c15, luns: luns}
	// Precondition to high utilization: one sequential pass mapping nearly
	// every logical unit, so every later write invalidates a slot somewhere
	// and the device runs at its steady-state valid fraction (~1/(1+OP)).
	unit := int64(f.UnitSize())
	for lun := int64(0); lun < s.luns; lun++ {
		f.Write(lun*unit, unit, TagHostData, StreamData)
		if lun%4096 == 0 {
			eng.Run()
		}
	}
	f.Sync(StreamData, TagHostData)
	eng.Run()
	return s
}

// run performs writes skewed 90/10 onto the hottest 10% of the logical
// space — the write-only GC-heavy pattern: hot blocks invalidate fast, so
// victims are cheap and selection cost (not migration) dominates each
// reclaim. Every 512 writes it runs the deallocator's probe-then-collect
// sequence against the FTL, exactly as ssd.Device's idle tick does.
func (s *gcHeavyState) run(writes int) {
	unit := int64(s.f.UnitSize())
	hot := s.luns / 10
	if hot < 1 {
		hot = 1
	}
	for i := 0; i < writes; i++ {
		r := s.rng.next()
		var lun int64
		if r%10 != 0 {
			lun = int64(r>>8) % hot
		} else {
			lun = int64(r>>8) % s.luns
		}
		s.f.Write(lun*unit, unit, TagHostData, StreamData)
		if i%512 == 511 {
			s.f.Sync(StreamData, TagHostData)
			s.eng.Run()
			if s.f.HasCheapVictim() {
				s.f.BackgroundGC(2)
			}
		}
	}
	s.f.Sync(StreamData, TagHostData)
	s.eng.Run()
}

// BenchmarkGCHeavyWriteOnly measures the per-run cost of a write-only
// workload at full utilization on the full-scale 2048-block device, the
// regime where the paper's GC results (fig8b, lifetime, fig9 tails) are
// decided. One op = 100k unit writes plus the periodic background-GC
// probe. The recorded before/after snapshot lives in BENCH_ftl.json.
//
// Every iteration forks from the same pristine preconditioned snapshot
// (engine clock, NAND array, FTL, RNG): without the reset, iteration i+1
// continued from iteration i's aged device and advanced RNG, so per-op cost
// drifted with b.N and -count runs were not comparing the same work. The
// fork's address tables are copied whole before the timer starts
// (ownTables), so the timed run prices the same device as a built one: a
// fork shares its tables and would otherwise copy each chunk on its first
// write, a cost of forking, not of the write path.
func BenchmarkGCHeavyWriteOnly(b *testing.B) {
	for _, pol := range []GCPolicy{GCGreedy, GCCostBenefit, GCFIFO} {
		b.Run(pol.String(), func(b *testing.B) {
			s := newGCHeavyState(b, pol)
			pristine, at := s.f, s.eng.State()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.eng = pristine.eng.Fork(at)
				f, err := Fork(s.eng, nand.Fork(s.eng, pristine.Array()), pristine)
				if err != nil {
					b.Fatal(err)
				}
				ownTables(f)
				s.f = f
				s.rng = 0x9e3779b97f4a7c15
				b.StartTimer()
				s.run(100_000)
			}
		})
	}
}
