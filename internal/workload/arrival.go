package workload

import (
	"fmt"
	"math"

	"github.com/checkin-kv/checkin/internal/sim"
)

// This file is the open-loop traffic model: instead of a fixed pool of
// closed-loop clients that issue the next query only when the previous one
// returns (the paper's YCSB setup), arrivals are generated by a time-varying
// stochastic process that does not wait for the system — the regime a
// production front-end actually faces, where slow service grows queues
// instead of throttling offered load. Tail latencies under open-loop
// arrivals include queueing delay, which is what per-tenant SLOs are set
// against.

// TenantSpec describes one tenant: a private key namespace carved out of
// the combined key space, a traffic share, and a workload shape.
type TenantSpec struct {
	Name   string
	Weight int   // relative share of arrivals (must be > 0)
	Keys   int64 // size of the tenant's private key namespace
	Mix    Mix
	// Zipfian selects the scrambled-Zipfian key distribution inside the
	// tenant's namespace; Theta is its skew (0 = DefaultTheta). False =
	// uniform.
	Zipfian bool
	Theta   float64
	// SLO is the tenant's per-op latency target in ns (0 = no target).
	// Reporting counts ops exceeding it.
	SLO sim.VTime
}

// FlashCrowd models a hot-key event: for its duration the aggregate arrival
// rate multiplies by RateMult and a HotFrac share of arrivals is redirected
// to the first HotKeys keys of tenant Tenant's namespace.
type FlashCrowd struct {
	At       sim.VTime
	Duration sim.VTime
	RateMult float64 // >= 1
	Tenant   int
	HotKeys  int64
	HotFrac  float64 // in [0, 1]
}

// ArrivalConfig parameterizes an open-loop arrival process over a set of
// tenants.
type ArrivalConfig struct {
	// Process selects the rate function: "poisson" (constant rate) or
	// "diurnal" (sinusoidal rate modulation with DiurnalAmp amplitude and
	// DiurnalPeriod period, the day/night load curve compressed to
	// simulation time scales).
	Process       string
	RatePerSec    float64
	DiurnalAmp    float64 // peak deviation from the mean rate, in [0, 1)
	DiurnalPeriod sim.VTime
	// Flash optionally superimposes a hot-key flash crowd.
	Flash *FlashCrowd
	// Clients is the modeled client population; each arrival is stamped
	// with a uniformly drawn client id (0 = default one million). The
	// population is modeled, not simulated: open-loop arrivals are
	// independent of any per-client state, which is exactly what lets the
	// generator stand in for millions of clients at O(1) memory.
	Clients int64
	Tenants []TenantSpec
	// Sizer assigns record sizes by global key (nil = fixed 1 KiB).
	Sizer Sizer
}

// TotalKeys returns the size of the combined key space (tenant namespaces
// stacked in spec order).
func (c ArrivalConfig) TotalKeys() int64 {
	var n int64
	for _, t := range c.Tenants {
		n += t.Keys
	}
	return n
}

// Validate reports a descriptive error for unusable configurations.
func (c ArrivalConfig) Validate() error {
	if c.Process != "poisson" && c.Process != "diurnal" {
		return fmt.Errorf("workload: unknown arrival process %q (want poisson or diurnal)", c.Process)
	}
	if c.RatePerSec <= 0 {
		return fmt.Errorf("workload: arrival rate %v must be positive", c.RatePerSec)
	}
	if c.DiurnalAmp < 0 || c.DiurnalAmp >= 1 {
		return fmt.Errorf("workload: diurnal amplitude %v out of [0, 1)", c.DiurnalAmp)
	}
	if c.Process == "diurnal" && c.DiurnalPeriod <= 0 {
		return fmt.Errorf("workload: diurnal process needs a positive period")
	}
	if c.Clients < 0 {
		return fmt.Errorf("workload: client population %d must be >= 0", c.Clients)
	}
	if len(c.Tenants) == 0 {
		return fmt.Errorf("workload: at least one tenant is required")
	}
	for i, t := range c.Tenants {
		if t.Weight <= 0 {
			return fmt.Errorf("workload: tenant %d weight %d must be positive", i, t.Weight)
		}
		if t.Keys <= 0 {
			return fmt.Errorf("workload: tenant %d namespace %d must be positive", i, t.Keys)
		}
		if err := t.Mix.Validate(); err != nil {
			return fmt.Errorf("workload: tenant %d: %w", i, err)
		}
		if t.Theta != 0 && (t.Theta <= 0 || t.Theta >= 1) {
			return fmt.Errorf("workload: tenant %d theta %v out of (0, 1)", i, t.Theta)
		}
	}
	if f := c.Flash; f != nil {
		if f.RateMult < 1 {
			return fmt.Errorf("workload: flash-crowd rate multiplier %v must be >= 1", f.RateMult)
		}
		if f.Tenant < 0 || f.Tenant >= len(c.Tenants) {
			return fmt.Errorf("workload: flash-crowd tenant %d out of range", f.Tenant)
		}
		if f.HotKeys <= 0 || f.HotKeys > c.Tenants[f.Tenant].Keys {
			return fmt.Errorf("workload: flash-crowd hot set %d out of (0, %d]", f.HotKeys, c.Tenants[f.Tenant].Keys)
		}
		if f.HotFrac < 0 || f.HotFrac > 1 {
			return fmt.Errorf("workload: flash-crowd hot fraction %v out of [0, 1]", f.HotFrac)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("workload: flash-crowd duration must be positive")
		}
	}
	return nil
}

// Arrival is one generated request: an absolute arrival offset from the
// stream's origin, the issuing tenant and modeled client, and the operation.
// Op.Key is global over the combined key space; Tenant identifies whose
// namespace it falls in.
type Arrival struct {
	At     sim.VTime
	Tenant int32
	Client int64
	Op     Op
}

// OpenLoop generates a deterministic, time-ordered arrival stream at O(1)
// memory. Non-homogeneous rates (diurnal, flash crowds) are realized by
// thinning: candidate arrivals are drawn from a homogeneous Poisson process
// at the peak rate and accepted with probability rate(t)/peak, which keeps
// the accepted process exactly Poisson with the configured instantaneous
// rate.
type OpenLoop struct {
	cfg     ArrivalConfig
	rng     *sim.RNG
	now     sim.VTime
	peak    float64 // thinning envelope, arrivals per second
	wsum    int
	bases   []int64 // tenant namespace base keys
	dists   []Distribution
	clients int64
}

// NewOpenLoop builds a generator for cfg, seeded deterministically: equal
// (cfg, seed) pairs produce identical streams.
func NewOpenLoop(cfg ArrivalConfig, seed int64) (*OpenLoop, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sizer == nil {
		cfg.Sizer = FixedSizer{Size: 1024}
	}
	if err := checkSizer(cfg.Sizer, cfg.TotalKeys()); err != nil {
		return nil, err
	}
	g := &OpenLoop{cfg: cfg, rng: sim.NewRNG(seed).Split("open-loop")}
	g.peak = cfg.RatePerSec * (1 + cfg.DiurnalAmp)
	if cfg.Flash != nil {
		g.peak *= cfg.Flash.RateMult
	}
	g.clients = cfg.Clients
	if g.clients == 0 {
		g.clients = 1_000_000
	}
	var base int64
	for _, t := range cfg.Tenants {
		g.wsum += t.Weight
		g.bases = append(g.bases, base)
		base += t.Keys
		if t.Zipfian {
			theta := t.Theta
			if theta == 0 {
				theta = DefaultTheta
			}
			g.dists = append(g.dists, NewZipfian(t.Keys, theta))
		} else {
			g.dists = append(g.dists, Uniform{Keys: t.Keys})
		}
	}
	return g, nil
}

// rateAt returns the instantaneous arrival rate at offset t.
func (g *OpenLoop) rateAt(t sim.VTime) float64 {
	r := g.cfg.RatePerSec
	if g.cfg.Process == "diurnal" {
		// float64(…) rounds the product: no architecture may fuse the
		// multiply-add, so results are bit-identical on every GOARCH
		r *= 1 + float64(g.cfg.DiurnalAmp*math.Sin(2*math.Pi*float64(t)/float64(g.cfg.DiurnalPeriod)))
	}
	if f := g.cfg.Flash; f != nil && t >= f.At && t < f.At+f.Duration {
		r *= f.RateMult
	}
	return r
}

// Next returns the next arrival. Arrival times are strictly increasing.
func (g *OpenLoop) Next() Arrival {
	for {
		u := g.rng.Float64()
		dtNS := -math.Log(1-u) / g.peak * float64(sim.Second)
		if dtNS < 1 {
			dtNS = 1
		}
		g.now += sim.VTime(dtNS)
		if g.rng.Float64()*g.peak <= g.rateAt(g.now) {
			break
		}
	}
	a := Arrival{At: g.now, Client: g.rng.Int63n(g.clients)}
	if f := g.cfg.Flash; f != nil && g.now >= f.At && g.now < f.At+f.Duration &&
		g.rng.Float64() < f.HotFrac {
		// Flash-crowd arrival: concentrated on the hot set of the crowd
		// tenant, with that tenant's op mix.
		a.Tenant = int32(f.Tenant)
		local := g.rng.Int63n(f.HotKeys)
		a.Op = g.buildOp(f.Tenant, local)
		return a
	}
	t := g.pickTenant()
	a.Tenant = int32(t)
	a.Op = g.buildOp(t, g.dists[t].Next(g.rng))
	return a
}

func (g *OpenLoop) pickTenant() int {
	r := g.rng.Intn(g.wsum)
	for i, t := range g.cfg.Tenants {
		if r < t.Weight {
			return i
		}
		r -= t.Weight
	}
	return len(g.cfg.Tenants) - 1
}

func (g *OpenLoop) buildOp(tenant int, local int64) Op {
	key := g.bases[tenant] + local
	op := Op{Key: key, Size: int32(g.cfg.Sizer.SizeOf(key))}
	op.Kind, op.ScanLen = g.cfg.Tenants[tenant].Mix.Pick(g.rng)
	return op
}
