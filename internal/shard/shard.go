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
// time: each window's arrivals are generated, admitted and routed before it
// runs (arrivals and token-bucket admission are pure functions of arrival
// times, never of service progress), each shard gets its slice, and only
// then do the domains execute the window — sequentially or on parallel
// goroutines. Because generation needs nothing from execution, a producer
// goroutine builds window k+1 while the shards run window k, into the
// second of two alternating buffer sets. Cross-domain edges exist solely at
// window boundaries: arrival dispatch going in, accounting collection
// coming out. Because shards share no mutable state and the inputs to every
// window are fixed before it runs, the merged output is byte-identical to
// the sequential interleaving at any GOMAXPROCS — the window barrier *is*
// the conservative-sync lookahead, with the window length as the horizon.
//
// The window (windowLen, 50 ms) only partitions time: reports are identical
// at any window length. Checkpoint cuts follow the same rule in every
// window — they fall strictly before the stream's final arrival — so the
// window in which the stream ends keeps its cuts.
package shard

import (
	"fmt"
	"math"
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

// Defaults of the sharded scale-out run, shared by Config, the shardsched
// experiment and both commands' flags.
const (
	// DefaultShards is the engine+SSD stack count.
	DefaultShards = 4
	// DefaultTenantCount is the tenant count DefaultTenants is called with.
	DefaultTenantCount = 3
	// DefaultArrival is the open-loop arrival spec (see ParseArrival).
	DefaultArrival = "poisson:150000"
)

// Config describes a sharded scale-out run.
type Config struct {
	// Shards is the number of independent engine+SSD stacks (default
	// DefaultShards).
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
	// Seed seeds the arrival stream (default Base.Seed, then 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = DefaultShards
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
		// Every shard forks from the snapshot, which now holds the
		// template and refuses to run it.
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

// windowLen is the conservative-sync quantum. Smaller windows tighten the
// arrival lookahead; larger windows amortize the cross-domain barrier.
// Output is byte-identical at any length.
const windowLen = 50 * sim.Millisecond

// Run executes the offered stream to exhaustion plus drain and returns the
// report. One call per ShardedDB.
func (s *ShardedDB) Run() (*Report, error) { return s.run(windowLen) }

// run is Run with the window length as a parameter.
//
// Phase 1 (generate, admit, route) runs on a producer goroutine one window
// ahead of the shards; the calling goroutine coordinates Phases 2-4.
func (s *ShardedDB) run(win sim.VTime) (*Report, error) {
	wallStart := time.Now()
	windows, stop, exited := make(chan *window), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		s.produce(win, windows, stop)
	}()
	halt := sync.OnceFunc(func() { close(stop); <-exited })
	defer halt() // every return path, a panicking shard's included, ends the producer
	err := s.execute(windows)
	halt() // report reads offered and shed, which only the producer writes
	if err != nil {
		return nil, err
	}
	for _, r := range s.shards {
		// Each shard's window ends at its last completion.
		r.m.EndWindow(r.en.Device(), r.en.JournalStats(), r.base+r.lastDone)
	}
	return s.report(time.Since(wallStart)), nil
}

// window is one conservative-sync quantum as the producer hands it over:
// its span, its admitted arrivals per shard and the end of its cut range.
type window struct {
	start, end sim.VTime
	staged     [][]workload.Arrival // per shard: sorted by time, keys local
	cutEnd     sim.VTime            // checkpoint cuts fall in [start, cutEnd)
	live       bool                 // the offered stream continues past end
}

// produce is Phase 1: it generates, admits and routes each window's
// arrivals and hands the window over out. Everything here is a pure
// function of the arrival stream — no shard state is consulted — so the
// windows are identical however, and whenever, they are built. Only the
// producer touches gen, buckets, router, offered and shed.
//
// Two staged-buffer sets alternate. out is unbuffered, so set k%2 is
// rewritten for window k+2 only after the coordinator took window k+1,
// which it does once window k has run. Once the stream ends the producer
// keeps handing over empty drain windows until stop closes.
func (s *ShardedDB) produce(win sim.VTime, out chan<- *window, stop <-chan struct{}) {
	var sets [2]window
	for i := range sets {
		sets[i].staged = make([][]workload.Arrival, len(s.shards))
	}
	remaining := s.cfg.TotalOps
	// lookahead arrival beyond the current window, held by value: a
	// pointer to it would move every generated arrival to the heap
	var pending workload.Arrival
	havePending := false
	// Cuts fall strictly before the stream's final arrival, which is known
	// once it is generated; until then every cut in the window stands.
	lastAt := sim.VTime(math.MaxInt64)
	end := sim.VTime(0)
	for k := 0; ; k++ {
		w := &sets[k%2]
		w.start, end = end, end+win
		w.end = end
		for i := range w.staged {
			w.staged[i] = w.staged[i][:0]
		}
		for remaining > 0 {
			if !havePending {
				pending, havePending = s.gen.Next(), true
			}
			if pending.At >= end {
				break
			}
			a := pending
			havePending = false
			remaining--
			if remaining == 0 {
				lastAt = a.At
			}
			s.offered[a.Tenant]++
			if s.buckets != nil && !s.buckets[a.Tenant].admit(a.At) {
				s.shed[a.Tenant]++
				continue
			}
			sh, local := s.router.place(a.Op.Key)
			a.Op.Key = local
			w.staged[sh] = append(w.staged[sh], a)
		}
		// A pending arrival is counted in remaining until it is taken.
		w.live = remaining > 0
		w.cutEnd = min(end, lastAt)
		select {
		case out <- w:
		case <-stop:
			return
		}
	}
}

// execute is Phases 2-4 on the coordinator: it stages each window the
// producer hands over, runs it on every shard and stops once the stream
// has ended and every shard has drained.
func (s *ShardedDB) execute(windows <-chan *window) error {
	interval := sim.VTime(s.shards[0].db.Config().CheckpointInterval.Nanoseconds())
	for {
		w := <-windows

		// Phase 2: stage arrivals and the window's checkpoint cuts.
		for i, r := range s.shards {
			r.stage(w.staged[i])
			r.scheduleCuts(s.cutsFor(i, interval, w.start, w.cutEnd))
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
					r.run(r.base + w.end)
				}()
			}
			wg.Wait()
		} else {
			for _, r := range s.shards {
				r.run(r.base + w.end)
			}
		}

		// Phase 4: termination and progress checks.
		for _, r := range s.shards {
			if err := r.en.Err(); err != nil {
				return fmt.Errorf("shard %d: %w", r.id, err)
			}
		}
		if !w.live {
			idle := true
			for _, r := range s.shards {
				if !r.idle() {
					idle = false
					if r.m.Queries != r.queued && r.sem.Waiting() == s.cfg.Workers {
						// Every worker parked on the semaphore holds no op,
						// so ops still outstanding once the stream has ended
						// can never complete — a driver bug; fail loudly
						// instead of spinning windows. (The event queue
						// never empties: the device's deallocator re-arms.)
						return fmt.Errorf("shard %d stalled with %d ops outstanding",
							r.id, r.queued-r.m.Queries)
					}
				}
			}
			if idle {
				return nil
			}
		}
	}
}

// cutsFor returns shard i's checkpoint triggers inside [winStart, winEnd);
// the caller clips winEnd to the stream's final arrival.
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
