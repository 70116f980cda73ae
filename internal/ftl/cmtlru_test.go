package ftl

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// TestCMTHitRatioOracle checks the basic CMT against the closed form for
// strict LRU under the independent reference model: reads drawn uniformly
// from N mapped units find a full cache of C entries holding exactly C of
// them, so each read hits with probability C/N whatever came before, and
// the hits over R reads are Binomial(R, C/N). After a warm-up of 2N reads
// the measured ratio must lie within four standard deviations of C/N, at
// C/N = 1/4 and 3/4. A cache bound off by one translation page (256
// entries here) moves the ratio by 1/16, some sixty deviations.
func TestCMTHitRatioOracle(t *testing.T) {
	const (
		n     = 4096
		reads = 400_000
	)
	geo := nand.Geometry{Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 2, PlanesPerDie: 1,
		BlocksPerPlane: 64, PagesPerBlock: 8, PageSize: 2048}
	for _, c := range []int{n / 4, 3 * n / 4} {
		cfg := smallCfg()
		cfg.FlashMap, cfg.CMTEntries, cfg.MetaFlushEntries = true, c, 96
		e := sim.NewEngine()
		arr, err := nand.New(e, geo, fastTim())
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(e, arr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cmtAxes{noFill: true, window: 1}.apply(f)
		if f.fm.cap != c {
			t.Fatalf("CMT bound %d, want %d", f.fm.cap, c)
		}
		unit := int64(f.unit)
		for lun := int64(0); lun < n; lun += 16 {
			f.Write(lun*unit, 16*unit, TagHostData, StreamData)
			e.Run()
		}
		f.Sync(StreamData, TagHostData)
		e.Run()

		rng := rand.New(rand.NewPCG(uint64(c), 7))
		read := func(k int) {
			for i := range k {
				f.Read(rng.Int64N(n)*unit, unit)
				if i%64 == 63 {
					e.Run()
				}
			}
			e.Run()
		}
		read(2 * n)
		before := f.Stats()
		read(reads)
		after := f.Stats()
		hits, misses := after.CMTHits-before.CMTHits, after.CMTMisses-before.CMTMisses
		if hits+misses != reads {
			t.Fatalf("C=%d: %d reads counted %d hits and %d misses", c, reads, hits, misses)
		}
		p := float64(c) / n
		band := 4 * math.Sqrt(p*(1-p)/reads)
		got := float64(hits) / reads
		t.Logf("C=%d N=%d: hit ratio %.4f, want %.4f ± %.4f", c, n, got, p, band)
		if math.Abs(got-p) > band {
			t.Errorf("C=%d N=%d: strict-LRU hit ratio %.4f outside %.4f ± %.4f", c, n, got, p, band)
		}
	}
}
