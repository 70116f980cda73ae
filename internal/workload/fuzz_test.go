package workload

import (
	"cmp"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// FuzzZipfian drives the scrambled-Zipfian generator over fuzzer-chosen
// key-space sizes, skews and seeds, asserting the distribution invariants:
// every drawn key lies in [0, n) and the stream is a pure function of the
// seed (two generators over the same inputs agree draw for draw).
func FuzzZipfian(f *testing.F) {
	f.Add(int64(1), 0.99, int64(1))
	f.Add(int64(50_000), 0.99, int64(7))
	f.Add(int64(3), 0.5, int64(-12345))
	f.Fuzz(func(t *testing.T, n int64, theta float64, seed int64) {
		if n < 1 {
			n = 1 - n%1_000_000 // fold negatives into a valid key space
		}
		if n > 1_000_000 {
			n = n % 1_000_000
			if n < 1 {
				n = 1
			}
		}
		if !(theta > 0 && theta < 1) {
			t.Skip("theta outside the generator's domain")
		}
		z := NewZipfian(n, theta)
		z2 := NewZipfian(n, theta)
		rng, rng2 := sim.NewRNG(seed), sim.NewRNG(seed)
		for i := 0; i < 200; i++ {
			k := z.Next(rng)
			if k < 0 || k >= n {
				t.Fatalf("draw %d: key %d out of [0, %d)", i, k, n)
			}
			if k2 := z2.Next(rng2); k2 != k {
				t.Fatalf("draw %d: same seed diverged (%d vs %d)", i, k, k2)
			}
		}
	})
}

// FuzzArrival drives the open-loop arrival generator over fuzzer-chosen
// rates, diurnal shapes, tenant splits and flash crowds, asserting the
// stream invariants: strictly increasing arrival times, tenants in range,
// keys inside the owning tenant's namespace, positive sizes, clients inside
// the modeled population, and seed-determinism (two generators over the
// same inputs agree arrival for arrival).
func FuzzArrival(f *testing.F) {
	f.Add(int64(1), 100_000.0, 0.0, int64(0), 10, 1, int64(1000), false)
	f.Add(int64(7), 250_000.0, 0.6, int64(2_000_000), 3, 2, int64(500), true)
	f.Add(int64(-9), 1_000.0, 0.9, int64(500_000_000), 1, 5, int64(64), true)
	f.Fuzz(func(t *testing.T, seed int64, rate, amp float64, periodNS int64,
		w1, w2 int, keys int64, crowd bool) {
		if !(rate >= 1 && rate <= 1e7) {
			t.Skip("rate outside the sane envelope")
		}
		if !(amp >= 0 && amp < 1) {
			t.Skip("amplitude outside [0, 1)")
		}
		if w1 < 1 {
			w1 = 1 - w1%1000
		}
		if w2 < 1 {
			w2 = 1 - w2%1000
		}
		if keys < 1 {
			keys = 1 - keys%100_000
		}
		if keys > 100_000 {
			keys = keys%100_000 + 1
		}
		cfg := ArrivalConfig{
			Process:    "poisson",
			RatePerSec: rate,
			Clients:    1 << 20,
			Tenants: []TenantSpec{
				{Name: "a", Weight: w1, Keys: keys, Mix: WorkloadA, Zipfian: true},
				{Name: "b", Weight: w2, Keys: keys * 2, Mix: WorkloadWO},
			},
		}
		if periodNS > 0 {
			cfg.Process = "diurnal"
			cfg.DiurnalAmp = amp
			cfg.DiurnalPeriod = sim.VTime(periodNS)
		}
		if crowd {
			cfg.Flash = &FlashCrowd{At: sim.Millisecond, Duration: 10 * sim.Millisecond,
				RateMult: 5, Tenant: 1, HotKeys: (keys + 1) / 2, HotFrac: 0.75}
		}
		g, err := NewOpenLoop(cfg, seed)
		if err != nil {
			t.Fatalf("NewOpenLoop rejected a valid config: %v", err)
		}
		g2, err := NewOpenLoop(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		var last sim.VTime
		for i := 0; i < 300; i++ {
			a := g.Next()
			if b := g2.Next(); a != b {
				t.Fatalf("arrival %d: same seed diverged (%+v vs %+v)", i, a, b)
			}
			if a.At <= last {
				t.Fatalf("arrival %d: time %v not after %v", i, a.At, last)
			}
			last = a.At
			if a.Tenant < 0 || int(a.Tenant) >= len(cfg.Tenants) {
				t.Fatalf("arrival %d: tenant %d out of range", i, a.Tenant)
			}
			base := g.bases[a.Tenant]
			if a.Op.Key < base || a.Op.Key >= base+cfg.Tenants[a.Tenant].Keys {
				t.Fatalf("arrival %d: key %d outside tenant %d namespace", i, a.Op.Key, a.Tenant)
			}
			if a.Op.Size <= 0 {
				t.Fatalf("arrival %d: size %d not positive", i, a.Op.Size)
			}
			if a.Client < 0 || a.Client >= 1<<20 {
				t.Fatalf("arrival %d: client %d outside population", i, a.Client)
			}
		}
	})
}

// FuzzMixValidate checks the mix validator and the generator built on top
// of it agree: a mix Validate accepts must be non-negative, sum to exactly
// 100 and have a scan length an Op holds, and every operation generated
// under it must carry a valid kind for its percentages and, on scans, the
// mix's scan length (50 when it is 0).
func FuzzMixValidate(f *testing.F) {
	f.Add(50, 50, 0, 0, 0, 0, int64(1))
	f.Add(25, 60, 10, 0, 5, 0, int64(2))
	f.Add(95, 0, 0, 5, 0, -3, int64(3))
	f.Add(0, 0, 0, 100, 0, 7, int64(4))
	f.Add(0, 0, 0, 100, 0, MaxScanLen+1, int64(5))
	f.Fuzz(func(t *testing.T, read, update, rmw, scan, del, scanLen int, seed int64) {
		m := Mix{ReadPct: read, UpdatePct: update, RMWPct: rmw, ScanPct: scan,
			DeletePct: del, ScanLen: scanLen}
		err := m.Validate()
		sum := read + update + rmw + scan + del
		valid := read >= 0 && update >= 0 && rmw >= 0 && scan >= 0 && del >= 0 && sum == 100 &&
			scanLen >= 0 && scanLen <= MaxScanLen
		if (err == nil) != valid {
			t.Fatalf("Validate() = %v for mix %+v (valid=%v sum=%d)", err, m, valid, sum)
		}
		if err != nil {
			return
		}
		const keys = 100
		gen, err := NewGenerator(Uniform{Keys: keys}, FixedSizer{Size: 128}, m, sim.NewRNG(seed))
		if err != nil {
			t.Fatalf("NewGenerator rejected a valid mix: %v", err)
		}
		for i := 0; i < 300; i++ {
			op := gen.Next()
			if op.Key < 0 || op.Key >= keys {
				t.Fatalf("op %d: key %d out of range", i, op.Key)
			}
			switch op.Kind {
			case OpRead:
				if read == 0 {
					t.Fatalf("op %d: read generated with ReadPct 0", i)
				}
			case OpUpdate:
				if update == 0 {
					t.Fatalf("op %d: update generated with UpdatePct 0", i)
				}
			case OpReadModifyWrite:
				if rmw == 0 {
					t.Fatalf("op %d: RMW generated with RMWPct 0", i)
				}
			case OpScan:
				if scan == 0 {
					t.Fatalf("op %d: scan generated with ScanPct 0", i)
				}
				if want := cmp.Or(scanLen, 50); int(op.ScanLen) != want {
					t.Fatalf("op %d: scan length %d, want %d", i, op.ScanLen, want)
				}
			case OpDelete:
				if del == 0 {
					t.Fatalf("op %d: delete generated with DeletePct 0", i)
				}
			default:
				t.Fatalf("op %d: unknown kind %v", i, op.Kind)
			}
		}
	})
}
