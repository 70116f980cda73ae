// Package shard is the multi-device scale-out front-end: a ShardedDB
// hash-shards a multi-tenant key space across N independent engine+SSD
// stacks and drives them with open-loop arrival traffic under cross-shard
// checkpoint scheduling policies.
//
// # Conservative synchronization
//
// Each shard's full stack (engine, journal, FTL, NAND array) lives on its
// own private sim.Engine — a coarse-grained event domain of one whole
// machine. The coordinator advances all domains in fixed windows of virtual
// time: it generates and admits the window's arrivals up front (arrivals and
// token-bucket admission are pure functions of arrival times, never of
// service progress), hands each shard its slice, and only then lets the
// domains execute the window — sequentially or on parallel goroutines.
// Cross-domain edges exist solely at those window boundaries: arrival
// dispatch going in, accounting collection coming out. Because shards share
// no mutable state and the inputs to every window are fixed before it runs,
// the merged output is byte-identical to the sequential interleaving at any
// GOMAXPROCS — the window barrier *is* the conservative-sync lookahead, with
// the window length as the horizon.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Scheduling policies for cross-shard checkpoint cuts.
const (
	// SchedSync triggers every shard's checkpoint at the same instant —
	// simple global cadence, but all devices absorb checkpoint write
	// traffic simultaneously.
	SchedSync = "sync"
	// SchedStaggered offsets shard i's cut by i/N of the interval — a
	// round-robin that keeps at most ~1/N of shards checkpointing at once.
	SchedStaggered = "staggered"
	// SchedGlobal is a globally consistent snapshot cut: synchronized
	// triggers plus a dequeue stall on each shard until its cut completes,
	// so the set of applied ops at the cut is a consistent frontier across
	// shards. Arrivals keep queueing during the stall; the backlog is the
	// policy's tail-latency price.
	SchedGlobal = "global"
)

// Scheds lists the scheduling policies in presentation order.
func Scheds() []string { return []string{SchedSync, SchedStaggered, SchedGlobal} }

// Config describes a sharded scale-out run.
type Config struct {
	// Shards is the number of independent engine+SSD stacks (default 4).
	Shards int
	// Base is the per-shard stack configuration. Keys is overridden with
	// the derived dense per-shard namespace; everything else (strategy,
	// geometry, checkpoint interval, error profile) applies to
	// every shard identically — which is what lets one load snapshot fork
	// all N stacks.
	Base checkin.Config
	// Arrival is the open-loop traffic model. Tenants must be set (see
	// DefaultTenants).
	Arrival workload.ArrivalConfig
	// TotalOps is the offered arrival count (default 100_000). Shed ops
	// count against it; the run ends when the offered stream is exhausted
	// and every shard drains.
	TotalOps int64
	// Workers is the per-shard service concurrency (default 32): the max
	// in-flight ops a shard pushes toward its device.
	Workers int
	// Sched is the cross-shard checkpoint scheduling policy (default
	// SchedSync).
	Sched string
	// AdmitRatePerSec caps aggregate admitted throughput with per-tenant
	// token buckets sized by tenant weight share (0 = no admission
	// control). AdmitBurst is the bucket depth in ops (default: 1/10 of
	// the tenant's per-second rate).
	AdmitRatePerSec float64
	AdmitBurst      float64
	// Window is the conservative-sync quantum (default 50ms). Smaller
	// windows tighten the arrival lookahead; larger windows amortize the
	// cross-domain barrier. Output is byte-identical at any value — the
	// window only partitions time.
	Window sim.VTime
	// Seed seeds the arrival stream (default Base.Seed, then 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.TotalOps == 0 {
		c.TotalOps = 100_000
	}
	if c.Workers == 0 {
		c.Workers = 32
	}
	if c.Sched == "" {
		c.Sched = SchedSync
	}
	if c.Window == 0 {
		c.Window = 50 * sim.Millisecond
	}
	if c.Seed == 0 {
		if c.Base.Seed != 0 {
			c.Seed = c.Base.Seed
		} else {
			c.Seed = 1
		}
	}
	return c
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: Shards %d must be >= 1", c.Shards)
	}
	switch c.Sched {
	case SchedSync, SchedStaggered, SchedGlobal:
	default:
		return fmt.Errorf("shard: unknown scheduling policy %q (want sync, staggered or global)", c.Sched)
	}
	if c.TotalOps < 1 {
		return fmt.Errorf("shard: TotalOps %d must be >= 1", c.TotalOps)
	}
	if c.Workers < 1 {
		return fmt.Errorf("shard: Workers %d must be >= 1", c.Workers)
	}
	if c.AdmitRatePerSec < 0 {
		return fmt.Errorf("shard: AdmitRatePerSec %v must be >= 0", c.AdmitRatePerSec)
	}
	return c.Arrival.Validate()
}

// DefaultTenants builds n tenants with descending traffic shares, heavy
// zipfian skew, distinct workload mixes and tiered SLO targets — the
// multi-tenant population the scheduling experiment runs against.
func DefaultTenants(n int, keysPer int64) []workload.TenantSpec {
	mixes := []workload.Mix{
		workload.WorkloadA,
		{ReadPct: 95, UpdatePct: 5},
		workload.WorkloadF,
		workload.WorkloadWO,
	}
	slos := []sim.VTime{2 * sim.Millisecond, sim.Millisecond, 5 * sim.Millisecond, 10 * sim.Millisecond}
	ts := make([]workload.TenantSpec, n)
	for i := range ts {
		ts[i] = workload.TenantSpec{
			Name:    fmt.Sprintf("t%d", i),
			Weight:  1 << (n - 1 - i), // shares halve down the tenant list
			Keys:    keysPer,
			Mix:     mixes[i%len(mixes)],
			Zipfian: true,
			SLO:     slos[i%len(slos)],
		}
	}
	return ts
}

// ShardedDB is an open sharded system: N loaded stacks plus the arrival
// stream, admission state and routing.
type ShardedDB struct {
	cfg     Config
	perCfg  checkin.Config // resolved per-shard stack configuration
	router  router
	gen     *workload.OpenLoop
	buckets []*tokenBucket
	shards  []*shardRunner
	fp      uint64

	offered []uint64 // per-tenant arrivals generated
	shed    []uint64 // per-tenant arrivals rejected by admission

	tmplWall time.Duration // template load wall time
}

// Open validates cfg, builds the N stacks (loading one template and forking
// it per shard when the configuration is snapshottable) and prepares the
// arrival stream. The returned system is ready to Run.
func Open(cfg Config) (*ShardedDB, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &ShardedDB{
		cfg:     cfg,
		router:  newRouter(cfg.Arrival.TotalKeys(), cfg.Shards),
		offered: make([]uint64, len(cfg.Arrival.Tenants)),
		shed:    make([]uint64, len(cfg.Arrival.Tenants)),
	}
	var err error
	if s.gen, err = workload.NewOpenLoop(cfg.Arrival, cfg.Seed); err != nil {
		return nil, err
	}
	if cfg.AdmitRatePerSec > 0 {
		wsum := 0
		for _, t := range cfg.Arrival.Tenants {
			wsum += t.Weight
		}
		for _, t := range cfg.Arrival.Tenants {
			rate := cfg.AdmitRatePerSec * float64(t.Weight) / float64(wsum)
			burst := cfg.AdmitBurst
			if burst == 0 {
				burst = rate / 10
			}
			s.buckets = append(s.buckets, newTokenBucket(rate, burst))
		}
	}

	s.perCfg = cfg.Base
	s.perCfg.Keys = s.router.shardKeys
	if err := s.buildShards(); err != nil {
		return nil, err
	}
	s.fp = s.fingerprint()
	return s, nil
}

// buildShards loads one template stack and forks it per shard; when the
// configuration is not snapshottable, each shard loads directly.
func (s *ShardedDB) buildShards() error {
	nTenants := len(s.cfg.Arrival.Tenants)
	start := time.Now()
	tmpl, err := checkin.Open(s.perCfg)
	if err != nil {
		return err
	}
	tmpl.Load()
	s.tmplWall = time.Since(start)
	snap, snapErr := tmpl.Snapshot()
	if snapErr == nil {
		// Every shard forks from the snapshot: drop the template so a
		// collection during the forks can hand its memory to them.
		tmpl = nil
	}
	for i := 0; i < s.cfg.Shards; i++ {
		forkStart := time.Now()
		var db *checkin.DB
		if snapErr == nil {
			if db, err = snap.Fork(s.perCfg); err != nil {
				return err
			}
		} else if i == 0 {
			db = tmpl // not snapshottable: the template serves as shard 0
		} else {
			if db, err = checkin.Open(s.perCfg); err != nil {
				return err
			}
			db.Load()
		}
		r := newShardRunner(i, db, nTenants, s.cfg.Workers)
		r.loadWall = time.Since(forkStart)
		s.shards = append(s.shards, r)
	}
	return nil
}

// fingerprint hashes the sharded configuration with checkin.HashValues:
// the per-shard stack enters through its resolved stack fingerprint, every
// other field directly, and Arrival.Sizer is probed over the combined key
// space.
func (s *ShardedDB) fingerprint() uint64 {
	stack, ok := checkin.Fingerprint(s.perCfg)
	cfg := s.cfg
	cfg.Base = checkin.Config{}
	// Config holds no func, map or chan, so HashValues always succeeds.
	fp, _ := checkin.HashValues("shard", cfg.Arrival.TotalKeys(), stack, ok, cfg)
	return fp
}

// Fingerprint identifies the full sharded configuration; equal fingerprints
// run identical simulations.
func (s *ShardedDB) Fingerprint() uint64 { return s.fp }

// parallelOn reports whether shard domains run on parallel goroutines:
// whenever there is more than one shard and more than one CPU to run them.
// Output is byte-identical either way.
func (s *ShardedDB) parallelOn() bool {
	return runtime.GOMAXPROCS(0) > 1 && s.cfg.Shards > 1
}

// Run executes the offered stream to exhaustion plus drain and returns the
// report. One call per ShardedDB.
func (s *ShardedDB) Run() (*Report, error) {
	wallStart := time.Now()
	interval := sim.VTime(s.shards[0].db.Config().CheckpointInterval.Nanoseconds())
	nShards := len(s.shards)

	remaining := s.cfg.TotalOps
	// lookahead arrival beyond the current window, held by value: a
	// pointer to it would move every generated arrival to the heap
	var pending workload.Arrival
	havePending := false
	staged := make([][]workload.Arrival, nShards)
	winStart := sim.VTime(0)

	for {
		winEnd := winStart + s.cfg.Window

		// Phase 1 (coordinator, sequential): generate, admit and route the
		// window's arrivals. Everything here is a pure function of the
		// arrival stream — no shard state is consulted — so the slices are
		// identical however the previous window was executed.
		for i := range staged {
			staged[i] = staged[i][:0]
		}
		for remaining > 0 {
			if !havePending {
				pending, havePending = s.gen.Next(), true
			}
			if pending.At >= winEnd {
				break
			}
			a := pending
			havePending = false
			remaining--
			s.offered[a.Tenant]++
			if s.buckets != nil && !s.buckets[a.Tenant].admit(a.At) {
				s.shed[a.Tenant]++
				continue
			}
			sh, local := s.router.place(a.Op.Key)
			a.Op.Key = local
			staged[sh] = append(staged[sh], a)
		}

		// Phase 2: stage arrivals and the window's checkpoint cuts.
		trafficLive := remaining > 0 || havePending
		for i, r := range s.shards {
			r.stage(staged[i])
			if trafficLive {
				r.scheduleCuts(s.cutsFor(i, interval, winStart, winEnd))
			}
		}

		// Phase 3: run the window — the only parallel section. Shards
		// share no mutable state; the WaitGroup join is the barrier that
		// publishes their private progress back to the coordinator.
		if s.parallelOn() {
			var wg sync.WaitGroup
			for _, r := range s.shards {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.run(r.base + winEnd)
				}()
			}
			wg.Wait()
		} else {
			for _, r := range s.shards {
				r.run(r.base + winEnd)
			}
		}

		// Phase 4: termination and progress checks.
		if !trafficLive {
			idle := true
			for _, r := range s.shards {
				if !r.idle() {
					idle = false
					if _, ok := r.eng.NextEventAt(); !ok && r.sem.Waiting() == s.cfg.Workers {
						// A backlogged shard with an empty event queue and
						// every worker parked can never drain — a driver
						// bug; fail loudly instead of spinning windows.
						return nil, fmt.Errorf("shard %d stalled with %d ops outstanding",
							r.id, r.queued-r.done)
					}
				}
			}
			if idle {
				break
			}
		}
		winStart = winEnd
	}

	for _, r := range s.shards {
		r.close(s.cfg.Workers)
	}
	return s.report(time.Since(wallStart)), nil
}

// cutsFor returns shard i's checkpoint triggers inside [winStart, winEnd).
func (s *ShardedDB) cutsFor(i int, interval, winStart, winEnd sim.VTime) []cut {
	phase := sim.VTime(0)
	if s.cfg.Sched == SchedStaggered {
		phase = sim.VTime(int64(interval) * int64(i) / int64(s.cfg.Shards))
	}
	pause := s.cfg.Sched == SchedGlobal
	var cuts []cut
	// Cuts at k*interval+phase for k >= 1 (the cadence starts one interval
	// in, like the engine's own periodic scheduler), restricted to the
	// window. k0 jumps straight to the window so cost stays O(cuts), not
	// O(elapsed/interval).
	base := s.shards[i].base
	k0 := int64(1)
	if winStart > phase {
		if k := int64((winStart - phase) / interval); k > k0 {
			k0 = k
		}
	}
	for k := k0; ; k++ {
		at := sim.VTime(k)*interval + phase
		if at >= winEnd {
			break
		}
		if at >= winStart {
			cuts = append(cuts, cut{at: base + at, pause: pause})
		}
	}
	return cuts
}
