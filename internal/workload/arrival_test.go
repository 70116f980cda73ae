package workload

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

func poissonCfg(rate float64, tenants ...TenantSpec) ArrivalConfig {
	if len(tenants) == 0 {
		tenants = []TenantSpec{{Name: "t0", Weight: 1, Keys: 10_000, Mix: WorkloadA, Zipfian: true}}
	}
	return ArrivalConfig{Process: "poisson", RatePerSec: rate, Tenants: tenants}
}

// TestOpenLoopDeterminism: equal (config, seed) pairs generate identical
// streams; different seeds diverge.
func TestOpenLoopDeterminism(t *testing.T) {
	cfg := poissonCfg(200_000,
		TenantSpec{Name: "a", Weight: 3, Keys: 5_000, Mix: WorkloadA, Zipfian: true},
		TenantSpec{Name: "b", Weight: 1, Keys: 2_000, Mix: WorkloadWO},
	)
	cfg.Flash = &FlashCrowd{At: 5 * sim.Millisecond, Duration: 5 * sim.Millisecond,
		RateMult: 3, Tenant: 1, HotKeys: 16, HotFrac: 0.8}
	g1, err := NewOpenLoop(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewOpenLoop(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := NewOpenLoop(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for i := 0; i < 10_000; i++ {
		a, b, c := g1.Next(), g2.Next(), g3.Next()
		if a != b {
			t.Fatalf("arrival %d: same seed diverged: %+v vs %+v", i, a, b)
		}
		if a != c {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 produced identical 10k-arrival streams")
	}
}

// TestOpenLoopPoissonRate: the empirical arrival rate of the constant-rate
// process lands within 5 % of the configured rate.
func TestOpenLoopPoissonRate(t *testing.T) {
	const rate = 100_000.0
	g, err := NewOpenLoop(poissonCfg(rate), 1)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2 * sim.Second
	n := 0
	var last sim.VTime
	for {
		a := g.Next()
		if a.At <= last {
			t.Fatalf("arrival times not strictly increasing: %v after %v", a.At, last)
		}
		last = a.At
		if a.At >= horizon {
			break
		}
		n++
	}
	want := rate * horizon.Seconds()
	if f := float64(n) / want; f < 0.95 || f > 1.05 {
		t.Fatalf("empirical rate %.0f/s vs configured %.0f/s (ratio %.3f)", float64(n)/horizon.Seconds(), rate, f)
	}
}

// TestOpenLoopDiurnalShape: the sinusoidal half-period above the mean must
// carry visibly more arrivals than the half-period below it.
func TestOpenLoopDiurnalShape(t *testing.T) {
	cfg := poissonCfg(100_000)
	cfg.Process = "diurnal"
	cfg.DiurnalAmp = 0.8
	cfg.DiurnalPeriod = sim.Second
	g, err := NewOpenLoop(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	var peak, trough int
	for {
		a := g.Next()
		if a.At >= sim.Second {
			break
		}
		if a.At < sim.Second/2 {
			peak++ // sin positive: above-mean rate
		} else {
			trough++
		}
	}
	if ratio := float64(peak) / float64(trough); ratio < 1.5 {
		t.Fatalf("diurnal modulation too weak: peak/trough = %d/%d = %.2f", peak, trough, ratio)
	}
}

// TestOpenLoopFlashCrowd: during the crowd window the arrival rate
// multiplies and the configured fraction of traffic concentrates on the hot
// set; outside the window traffic looks like the base process.
func TestOpenLoopFlashCrowd(t *testing.T) {
	cfg := poissonCfg(100_000,
		TenantSpec{Name: "a", Weight: 1, Keys: 10_000, Mix: WorkloadA, Zipfian: true},
		TenantSpec{Name: "b", Weight: 1, Keys: 10_000, Mix: WorkloadA},
	)
	f := &FlashCrowd{At: 200 * sim.Millisecond, Duration: 200 * sim.Millisecond,
		RateMult: 4, Tenant: 1, HotKeys: 32, HotFrac: 0.9}
	cfg.Flash = f
	g, err := NewOpenLoop(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := g.bases[f.Tenant]
	var before, in, inHot int
	for {
		a := g.Next()
		if a.At >= f.At+f.Duration {
			break
		}
		if a.At < f.At {
			before++
			continue
		}
		in++
		if a.Tenant == int32(f.Tenant) && a.Op.Key >= base && a.Op.Key < base+f.HotKeys {
			inHot++
		}
	}
	// Same-length windows: the crowd window must offer ~RateMult times the
	// arrivals of the quiet window.
	if mult := float64(in) / float64(before); mult < 3.2 || mult > 4.8 {
		t.Fatalf("flash-crowd rate multiplier %.2f, want ~4 (before=%d in=%d)", mult, before, in)
	}
	if frac := float64(inHot) / float64(in); frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot-set share %.3f during the crowd, want ~0.9", frac)
	}
}

// TestOpenLoopNamespaces: every arrival's key falls inside its tenant's
// namespace, every tenant gets traffic proportional to its weight, and
// client ids stay within the modeled population.
func TestOpenLoopNamespaces(t *testing.T) {
	cfg := poissonCfg(100_000,
		TenantSpec{Name: "a", Weight: 6, Keys: 1_000, Mix: WorkloadA, Zipfian: true},
		TenantSpec{Name: "b", Weight: 3, Keys: 2_000, Mix: WorkloadF},
		TenantSpec{Name: "c", Weight: 1, Keys: 500, Mix: WorkloadWO},
	)
	cfg.Clients = 1000
	g, err := NewOpenLoop(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	const n = 30_000
	for i := 0; i < n; i++ {
		a := g.Next()
		if a.Tenant < 0 || int(a.Tenant) >= 3 {
			t.Fatalf("tenant %d out of range", a.Tenant)
		}
		base := g.bases[a.Tenant]
		if a.Op.Key < base || a.Op.Key >= base+cfg.Tenants[a.Tenant].Keys {
			t.Fatalf("key %d outside tenant %d namespace [%d, %d)", a.Op.Key, a.Tenant,
				base, base+cfg.Tenants[a.Tenant].Keys)
		}
		if a.Client < 0 || a.Client >= cfg.Clients {
			t.Fatalf("client %d outside population %d", a.Client, cfg.Clients)
		}
		counts[a.Tenant]++
	}
	for i, want := range []float64{0.6, 0.3, 0.1} {
		if got := float64(counts[i]) / n; got < want-0.03 || got > want+0.03 {
			t.Fatalf("tenant %d share %.3f, want ~%.1f", i, got, want)
		}
	}
}

// TestArrivalConfigValidate exercises the rejection paths.
func TestArrivalConfigValidate(t *testing.T) {
	bad := []ArrivalConfig{
		{Process: "bursty", RatePerSec: 1, Tenants: poissonCfg(1).Tenants},
		{Process: "poisson", RatePerSec: 0, Tenants: poissonCfg(1).Tenants},
		{Process: "poisson", RatePerSec: 1},
		{Process: "diurnal", RatePerSec: 1, DiurnalAmp: 0.5, Tenants: poissonCfg(1).Tenants},
		{Process: "poisson", RatePerSec: 1, DiurnalAmp: 1.5, Tenants: poissonCfg(1).Tenants},
		{Process: "poisson", RatePerSec: 1, Tenants: []TenantSpec{{Weight: 0, Keys: 1, Mix: WorkloadA}}},
		{Process: "poisson", RatePerSec: 1, Tenants: []TenantSpec{{Weight: 1, Keys: 0, Mix: WorkloadA}}},
		{Process: "poisson", RatePerSec: 1, Tenants: []TenantSpec{{Weight: 1, Keys: 1, Mix: Mix{ReadPct: 7}}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated but should not have: %+v", i, c)
		}
	}
	c := poissonCfg(1000)
	c.Flash = &FlashCrowd{At: 0, Duration: sim.Second, RateMult: 0.5, HotKeys: 1, HotFrac: 0.5}
	if err := c.Validate(); err == nil {
		t.Error("sub-unity flash-crowd multiplier validated")
	}
	c.Flash.RateMult = 2
	c.Flash.HotKeys = 1 << 40
	if err := c.Validate(); err == nil {
		t.Error("hot set larger than the tenant namespace validated")
	}
}

// TestArrivalStreamPinned: every field of 20k arrivals from a three-tenant
// stream (zipfian and uniform namespaces, scans, a flash crowd, mixed
// record sizes) matches a digest recorded before Op was narrowed to 16
// bytes.
func TestArrivalStreamPinned(t *testing.T) {
	cfg := poissonCfg(200_000,
		TenantSpec{Name: "a", Weight: 3, Keys: 5_000, Mix: WorkloadA, Zipfian: true},
		TenantSpec{Name: "b", Weight: 1, Keys: 2_000, Mix: WorkloadWO},
		TenantSpec{Name: "e", Weight: 2, Keys: 3_000, Mix: WorkloadE, Zipfian: true, Theta: 0.8},
	)
	cfg.Flash = &FlashCrowd{At: 20 * sim.Millisecond, Duration: 10 * sim.Millisecond,
		RateMult: 3, Tenant: 1, HotKeys: 16, HotFrac: 0.8}
	cfg.Sizer = PatternP1
	g, err := NewOpenLoop(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := 0; i < 20_000; i++ {
		a := g.Next()
		fmt.Fprintf(h, "%d,%d,%d,%d,%d,%d,%d;", a.At, a.Tenant, a.Client,
			uint8(a.Op.Kind), a.Op.Key, a.Op.Size, a.Op.ScanLen)
	}
	if sum := h.Sum64(); sum != 0xa5d4d71d30366779 {
		t.Errorf("arrival digest %#x, want 0xa5d4d71d30366779", sum)
	}
}
