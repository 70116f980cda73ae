package shard

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/lsm"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// TestRouterBijection: the Feistel permutation routes every global key to a
// unique (shard, local) coordinate, locals stay inside the dense per-shard
// namespace, and the per-shard key counts balance to within the pigeonhole
// bound.
func TestRouterBijection(t *testing.T) {
	for _, tc := range []struct {
		total  int64
		shards int
	}{{1000, 4}, {1, 1}, {7, 3}, {65536, 10}, {99_991, 7}} {
		r := newRouter(tc.total, tc.shards)
		seen := make(map[int64]bool, tc.total)
		perShard := make([]int64, tc.shards)
		for g := int64(0); g < tc.total; g++ {
			sh, local := r.place(g)
			if sh < 0 || sh >= tc.shards {
				t.Fatalf("total=%d shards=%d: key %d routed to shard %d", tc.total, tc.shards, g, sh)
			}
			if local < 0 || local >= r.shardKeys {
				t.Fatalf("total=%d shards=%d: key %d local %d outside [0, %d)", tc.total, tc.shards, g, local, r.shardKeys)
			}
			coord := int64(sh)*r.shardKeys + local
			if seen[coord] {
				t.Fatalf("total=%d shards=%d: collision at shard %d local %d", tc.total, tc.shards, sh, local)
			}
			seen[coord] = true
			perShard[sh]++
		}
		min, max := perShard[0], perShard[0]
		for _, n := range perShard {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("total=%d shards=%d: unbalanced placement %v", tc.total, tc.shards, perShard)
		}
	}
}

// TestRouterSpreadsTenants: contiguous tenant key ranges must spread across
// every shard, not land on one — the point of hashing before sharding.
func TestRouterSpreadsTenants(t *testing.T) {
	r := newRouter(8000, 8)
	hit := make(map[int]bool)
	for g := int64(0); g < 1000; g++ { // one tenant's contiguous namespace
		sh, _ := r.place(g)
		hit[sh] = true
	}
	if len(hit) != 8 {
		t.Fatalf("tenant namespace touched only %d of 8 shards", len(hit))
	}
}

// TestTokenBucket: refill follows virtual time, bursts cap, dry buckets
// shed, and the decision stream is a pure function of arrival times.
func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(1000, 10) // 1k ops/s, burst 10
	admitted := 0
	for i := 0; i < 20; i++ { // simultaneous burst
		if b.admit(0) {
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("burst admitted %d, want 10", admitted)
	}
	if b.admit(500 * sim.Microsecond) {
		t.Fatal("admitted with only half a token refilled")
	}
	// The failed admission above consumed no token; 1.5ms refills past 1.
	if !b.admit(2 * sim.Millisecond) {
		t.Fatal("shed with a refilled token")
	}
}

func testConfig(shards int, sched string) Config {
	base := checkin.DefaultConfig()
	base.Strategy = checkin.StrategyCheckIn
	// Traffic spans ~40ms (TotalOps / RatePerSec); a 10ms cadence lands
	// several cuts inside it.
	base.CheckpointInterval = 10 * time.Millisecond
	return Config{
		Shards: shards,
		Base:   base,
		Arrival: workload.ArrivalConfig{
			Process:    "poisson",
			RatePerSec: 150_000,
			Tenants:    DefaultTenants(3, 2000),
		},
		TotalOps: 6_000,
		Workers:  8,
		Sched:    sched,
		Seed:     1,
	}
}

// TestShardedRunCompletes: a small run drains fully, conserves ops
// (offered = shed + done) and reports sane accounting.
func TestShardedRunCompletes(t *testing.T) {
	cfg := testConfig(3, SchedSync)
	cfg.AdmitRatePerSec = 120_000 // sheds some of the 150k offered
	cfg.AdmitBurst = 20           // default burst would absorb this short run
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != uint64(cfg.TotalOps) {
		t.Fatalf("offered %d, want %d", rep.Offered, cfg.TotalOps)
	}
	if rep.Shed == 0 {
		t.Fatal("admission control shed nothing at 80% of offered rate")
	}
	if rep.Done+rep.Shed != rep.Offered {
		t.Fatalf("op conservation: done %d + shed %d != offered %d", rep.Done, rep.Shed, rep.Offered)
	}
	if rep.Elapsed == 0 {
		t.Fatal("zero makespan")
	}
	var shardDone uint64
	for _, sr := range rep.ShardRows {
		shardDone += sr.Done
	}
	if shardDone != rep.Done {
		t.Fatalf("per-shard done %d != total %d", shardDone, rep.Done)
	}
	for _, tr := range rep.Tenants {
		if tr.Done > 0 && tr.P99 == 0 {
			t.Fatalf("tenant %s: %d ops but zero p99", tr.Name, tr.Done)
		}
	}
}

// TestShardedSchedulingPolicies: each policy produces checkpoints on every
// shard; staggered cuts fire at distinct phases (observable as shards'
// checkpoint counts staying within one of each other while their first cuts
// differ); the global policy still completes and drains.
func TestShardedSchedulingPolicies(t *testing.T) {
	for _, sched := range Scheds() {
		s, err := Open(testConfig(3, sched))
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		for _, sr := range rep.ShardRows {
			if sr.Checkpoints == 0 {
				t.Fatalf("%s: shard %d ran no checkpoints", sched, sr.ID)
			}
		}
		if rep.Done == 0 || rep.Done != rep.Offered-rep.Shed {
			t.Fatalf("%s: bad accounting %+v", sched, rep)
		}
	}
}

// withProcs runs f under GOMAXPROCS=procs, which selects the shard driver's
// path: sequential at 1, parallel goroutines above.
func withProcs(procs int, f func() string) string {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	return f()
}

// TestShardedDeterminismMatrix: rendered output is byte-identical on the
// sequential path (GOMAXPROCS=1) and the parallel one (GOMAXPROCS=4),
// whatever -cpu the suite runs under — the PR 6 bar, generalized to whole
// engine stacks. CI additionally runs this under -race -cpu 1,4.
func TestShardedDeterminismMatrix(t *testing.T) {
	for _, sched := range Scheds() {
		render := func() string {
			s, err := Open(testConfig(3, sched))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return rep.String()
		}
		if seq, par := withProcs(1, render), withProcs(4, render); seq != par {
			t.Fatalf("%s: sequential and parallel outputs differ:\n--- GOMAXPROCS=1 ---\n%s\n--- GOMAXPROCS=4 ---\n%s", sched, seq, par)
		}
	}
}

// TestShardedLSMEngine: shards drive whichever host engine Base.Engine
// selects. Under the LSM engine every scheduling policy completes, every
// admitted op is served, each shard runs flush epochs, and the report is
// byte-identical on the sequential (GOMAXPROCS=1) and parallel
// (GOMAXPROCS=4) shard paths.
func TestShardedLSMEngine(t *testing.T) {
	for _, sched := range Scheds() {
		render := func() string {
			cfg := testConfig(2, sched)
			cfg.Base.Engine = "lsm"
			s, err := Open(cfg)
			if err != nil {
				t.Fatalf("%s: %v", sched, err)
			}
			if _, ok := s.shards[0].en.(*lsm.Engine); !ok {
				t.Fatalf("%s: shard engine is %T, want *lsm.Engine", sched, s.shards[0].en)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatalf("%s: %v", sched, err)
			}
			if rep.Done != rep.Admitted {
				t.Fatalf("%s: done %d != admitted %d", sched, rep.Done, rep.Admitted)
			}
			for _, sr := range rep.ShardRows {
				if sr.Checkpoints == 0 {
					t.Fatalf("%s: shard %d ran no flush epochs", sched, sr.ID)
				}
			}
			return rep.String()
		}
		if seq, par := withProcs(1, render), withProcs(4, render); seq != par {
			t.Fatalf("%s: sequential and parallel outputs differ:\n--- GOMAXPROCS=1 ---\n%s\n--- GOMAXPROCS=4 ---\n%s", sched, seq, par)
		}
	}
}

// TestShardedMetricsMatchReport: each shard's report row reads the one
// record of its run, the core.Metrics window on its stack's collector,
// and that record agrees with the driver's own per-tenant accounting.
// Per shard, on both engines under every policy: every completion is one
// query, split into reads and writes; every checkpoint is one duration
// sample with the row's mean; the window saw device work and ends at the
// shard's last completion; and some queries overlapped a checkpoint.
// Across shards, the merged latency histogram equals the merged tenant
// histograms bucket for bucket, so both record the same samples.
func TestShardedMetricsMatchReport(t *testing.T) {
	for _, engine := range []string{"journal", "lsm"} {
		for _, sched := range Scheds() {
			cfg := testConfig(2, sched)
			cfg.Base.Engine = engine
			s, err := Open(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", engine, sched, err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", engine, sched, err)
			}
			var all, tenants stats.Histogram
			for i, sr := range rep.ShardRows {
				m, r := sr.Metrics, s.shards[i]
				name := fmt.Sprintf("%s/%s shard %d", engine, sched, sr.ID)
				var tenantDone uint64
				for ti := range r.tenants {
					tenantDone += r.tenants[ti].done
					tenants.Merge(&r.tenants[ti].allLat)
				}
				all.Merge(&m.AllLat)
				switch {
				case sr.Done == 0 || m.Queries != sr.Done || tenantDone != sr.Done:
					t.Errorf("%s: Queries %d, Done %d, tenants done %d", name, m.Queries, sr.Done, tenantDone)
				case m.ReadLat.Count()+m.WriteLat.Count() != sr.Done:
					t.Errorf("%s: %d reads + %d writes, Done %d", name, m.ReadLat.Count(), m.WriteLat.Count(), sr.Done)
				case sr.Checkpoints == 0 || m.CkptDur.Count() != uint64(sr.Checkpoints):
					t.Errorf("%s: %d checkpoint samples, Checkpoints %d", name, m.CkptDur.Count(), sr.Checkpoints)
				case m.MeanCheckpointTime() != sr.MeanCkpt:
					t.Errorf("%s: mean checkpoint %v, MeanCkpt %v", name, m.MeanCheckpointTime(), sr.MeanCkpt)
				case m.HostWriteBytes() == 0 || m.FlashPrograms() == 0 || m.FlashReads() == 0:
					t.Errorf("%s: device deltas host writes %d, programs %d, flash reads %d",
						name, m.HostWriteBytes(), m.FlashPrograms(), m.FlashReads())
				case m.Elapsed != sr.LastDone:
					t.Errorf("%s: window %v, last completion %v", name, m.Elapsed, sr.LastDone)
				case m.ReadLatCkpt.Count()+m.WriteLatCkpt.Count() == 0:
					t.Errorf("%s: no query overlapped any of %d checkpoints", name, sr.Checkpoints)
				}
			}
			if all != tenants {
				t.Errorf("%s/%s: merged shard AllLat (%d samples) differs from the merged tenant histograms (%d)",
					engine, sched, all.Count(), tenants.Count())
			}
		}
	}
}

// TestPendingOpIs32Bytes: the arrival's checkpoint epoch rides in the
// padding of a queued op, which stays half a cache line.
func TestPendingOpIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(pendingOp{}); n != 32 {
		t.Fatalf("pendingOp is %d bytes, want 32", n)
	}
}

// TestShardedGlobalCutPausesService: under the global policy the write tail
// must reflect the dequeue stall — p99.9 at least as high as the sync
// policy's on the same traffic (the backlog the consistent cut builds).
func TestShardedGlobalCutPausesService(t *testing.T) {
	run := func(sched string) *Report {
		s, err := Open(testConfig(2, sched))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	syncRep := run(SchedSync)
	globalRep := run(SchedGlobal)
	var syncMax, globalMax sim.VTime
	for i := range syncRep.Tenants {
		if v := syncRep.Tenants[i].P999; v > syncMax {
			syncMax = v
		}
		if v := globalRep.Tenants[i].P999; v > globalMax {
			globalMax = v
		}
	}
	if globalMax < syncMax {
		t.Fatalf("global-consistent cut tail %v below sync %v — the stall had no cost?", globalMax, syncMax)
	}
}

// TestShardedSeedSensitivity: different arrival seeds produce different
// reports (the stream actually feeds the system), equal seeds reproduce
// byte-identically.
func TestShardedSeedSensitivity(t *testing.T) {
	render := func(seed int64) string {
		cfg := testConfig(2, SchedSync)
		cfg.Seed = seed
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	a1, a2, b := render(1), render(1), render(2)
	if a1 != a2 {
		t.Fatal("same seed did not reproduce")
	}
	if a1 == b {
		t.Fatal("seeds 1 and 2 produced identical reports")
	}
}

// TestShardedConfigValidation exercises the rejection paths.
func TestShardedConfigValidation(t *testing.T) {
	good := testConfig(2, SchedSync)
	bad := []func(*Config){
		func(c *Config) { c.Sched = "roundrobin" },
		func(c *Config) { c.TotalOps = -1 },
		func(c *Config) { c.Workers = -2 },
		func(c *Config) { c.AdmitRatePerSec = -5 },
		func(c *Config) { c.Arrival.Tenants = nil },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := Open(cfg); err == nil {
			t.Errorf("mutation %d: Open accepted an invalid config", i)
		}
	}
}

// TestShardFingerprintSensitivity: the sharded config fingerprint moves with
// every knob that changes the simulation.
func TestShardFingerprintSensitivity(t *testing.T) {
	fp := func(mutate func(*Config)) uint64 {
		cfg := testConfig(2, SchedSync)
		mutate(&cfg)
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Fingerprint()
	}
	base := fp(func(*Config) {})
	muts := map[string]func(*Config){
		"shards":  func(c *Config) { c.Shards = 3 },
		"sched":   func(c *Config) { c.Sched = SchedStaggered },
		"rate":    func(c *Config) { c.Arrival.RatePerSec *= 2 },
		"tenants": func(c *Config) { c.Arrival.Tenants = DefaultTenants(2, 2000) },
		"seed":    func(c *Config) { c.Seed = 9 },
		"admit":   func(c *Config) { c.AdmitRatePerSec = 50_000 },
		"strat":   func(c *Config) { c.Base.Strategy = checkin.StrategyBaseline },
		"sizer":   func(c *Config) { c.Arrival.Sizer = workload.FixedSizer{Size: 4096} },
	}
	for name, m := range muts {
		if fp(m) == base {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}
	if fp(func(*Config) {}) != base {
		t.Error("fingerprint not stable across identical configs")
	}
}

// TestParseArrival covers the spec grammar both ways.
func TestParseArrival(t *testing.T) {
	good := map[string]func(workload.ArrivalConfig) bool{
		"poisson:200000": func(c workload.ArrivalConfig) bool {
			return c.Process == "poisson" && c.RatePerSec == 200000 && c.Flash == nil
		},
		"poisson:1000:flash": func(c workload.ArrivalConfig) bool {
			return c.Flash != nil && c.Flash.RateMult == 4
		},
		"diurnal:50000:0.6:200ms": func(c workload.ArrivalConfig) bool {
			return c.Process == "diurnal" && c.DiurnalAmp == 0.6 &&
				c.DiurnalPeriod == 200*sim.Millisecond
		},
		"diurnal:50000:0.3:2s:flash": func(c workload.ArrivalConfig) bool {
			return c.Flash != nil && c.DiurnalPeriod == 2*sim.Second
		},
	}
	for spec, check := range good {
		c, err := ParseArrival(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
		} else if !check(c) {
			t.Errorf("%s: parsed to %+v", spec, c)
		}
	}
	bad := []string{"", "poisson", "poisson:0", "poisson:-5", "poisson:1000:extra",
		"bursty:1000", "diurnal:1000", "diurnal:1000:1.5:2s", "diurnal:1000:0.5:nope",
		"diurnal:1000:0.5:-2s", "flash"}
	for _, spec := range bad {
		if _, err := ParseArrival(spec); err == nil {
			t.Errorf("%q: accepted", spec)
		}
	}
}

func BenchmarkShardedRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig(4, SchedStaggered)
		cfg.TotalOps = 20_000
		s, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleReport() {
	// Deterministic micro-run: 1 shard, tiny op count, admission off.
	cfg := testConfig(1, SchedSync)
	cfg.TotalOps = 100
	cfg.Workers = 4
	s, err := Open(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	rep, err := s.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("offered=%d done=%d shards=%d\n", rep.Offered, rep.Done, rep.Shards)
	// Output: offered=100 done=100 shards=1
}

// TestShardRunAllocs bounds the heap objects an open-loop run allocates per
// offered op. The arrival path allocates nothing: the lookahead arrival is
// held by value (a pointer to it moved every generated arrival to the heap)
// and the arrival event fires through a Handler conversion (the method
// value s.pace built a closure per event). The engines hand their device
// commands back for reuse, and each worker is a kernel handler embedding
// its own Query. Without the first three this run allocated 3.78 objects
// per op; it now allocates about 0.43.
func TestShardRunAllocs(t *testing.T) {
	cfg := testConfig(2, SchedStaggered)
	cfg.TotalOps = 20_000
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / float64(cfg.TotalOps)
	t.Logf("%.3f allocs per offered op", perOp)
	if perOp > 0.5 {
		t.Fatalf("open-loop run allocates %.3f objects per offered op, want at most 0.5", perOp)
	}
}

// TestShardedWindowInvariance: the conservative-sync window only partitions
// time. Every policy renders the same report, header fingerprint included,
// at window lengths from 3 ms to beyond the whole run. Checkpoint cuts fall
// strictly before the stream's final arrival whatever window it lands in; a
// rule that drops cuts in the window where the stream ends takes 3
// checkpoints per shard at 3 ms and 0 at 1 s here.
func TestShardedWindowInvariance(t *testing.T) {
	for _, sched := range Scheds() {
		var want string
		for _, win := range []sim.VTime{3 * sim.Millisecond, 20 * sim.Millisecond, windowLen, sim.Second} {
			s, err := Open(testConfig(3, sched))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.run(win)
			if err != nil {
				t.Fatalf("%s window %v: %v", sched, win, err)
			}
			for _, sr := range rep.ShardRows {
				if sr.Checkpoints == 0 {
					t.Fatalf("%s window %v: shard %d ran no checkpoints", sched, win, sr.ID)
				}
			}
			got := rep.String()
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("%s: window %v changes the report:\n--- 3ms ---\n%s\n--- %v ---\n%s", sched, win, want, win, got)
			}
		}
	}
}

// TestShardedRunLeavesNoGoroutine: Run ends its arrival producer and its
// parallel-window goroutines on every return path. The goroutine count
// after a run — a normal one at GOMAXPROCS 1 and 4, and one that returns
// early with the stall error — is back at its count before Open. The
// workers are kernel handlers and hold no goroutine, parked or not.
func TestShardedRunLeavesNoGoroutine(t *testing.T) {
	settle := func(baseline int) int {
		n := runtime.NumGoroutine()
		// A goroutine that signalled its exit may still be unwinding.
		for deadline := time.Now().Add(2 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n
	}
	for _, procs := range []int{1, 4} {
		for _, stall := range []bool{false, true} {
			withProcs(procs, func() string {
				baseline := runtime.NumGoroutine()
				s, err := Open(testConfig(2, SchedStaggered))
				if err != nil {
					t.Fatal(err)
				}
				if stall {
					// An op counted as queued that no worker will ever see:
					// once traffic ends, shard 0 can never drain, and Run
					// returns with the stall error.
					s.shards[0].queued++
				}
				_, err = s.Run()
				if stall != (err != nil) {
					t.Fatalf("GOMAXPROCS=%d stall=%v: Run error %v", procs, stall, err)
				}
				if n := settle(baseline); n > baseline {
					t.Fatalf("GOMAXPROCS=%d stall=%v: %d goroutines after Run, %d before Open", procs, stall, n, baseline)
				}
				return ""
			})
		}
	}
}

// TestShardedRunEndsOnHostFailure: a shard whose store fails (Base.Fail,
// the path a full LSM run area takes) ends the sharded run with the
// store's error instead of spinning windows on a stopped domain.
func TestShardedRunEndsOnHostFailure(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() string {
			cfg := testConfig(2, SchedSync)
			cfg.Base.Engine = "lsm"
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			errFull := errors.New("run area full")
			r := s.shards[1]
			r.eng.Schedule(5*sim.Millisecond, func() { r.en.(interface{ Fail(error) }).Fail(errFull) })
			if _, err := s.Run(); !errors.Is(err, errFull) {
				t.Fatalf("GOMAXPROCS=%d: Run returned %v, want %v", procs, err, errFull)
			}
			return ""
		})
	}
}

const reportGoldenPath = "testdata/report_golden.txt"

// TestShardedReportGolden pins the shard driver's rendered virtual output
// byte for byte: Report.String for both engines under every scheduling
// policy at testConfig scale, plus one run with admission control. The
// driver is deterministic, so any diff means the queueing, dispatch or
// accounting of the open-loop path changed. An intentional change
// regenerates the file with:
//
//	CHECKIN_UPDATE_GOLDEN=1 go test ./internal/shard -run TestShardedReportGolden
func TestShardedReportGolden(t *testing.T) {
	var sb strings.Builder
	render := func(name string, cfg Config) {
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "== %s\n%s\n", name, rep.String())
	}
	for _, engine := range checkin.EngineNames() {
		for _, sched := range Scheds() {
			cfg := testConfig(2, sched)
			cfg.Base.Engine = engine
			render(engine+" "+sched, cfg)
		}
	}
	cfg := testConfig(3, SchedSync)
	cfg.AdmitRatePerSec = 120_000
	cfg.AdmitBurst = 20
	render("journal sync admit 120000/s", cfg)
	compareGolden(t, reportGoldenPath, sb.String(), "TestShardedReportGolden")
}

// compareGolden checks got against the golden file at path, or rewrites
// the file when CHECKIN_UPDATE_GOLDEN is set; test names the test that
// regenerates it.
func compareGolden(t *testing.T, path, got, test string) {
	t.Helper()
	if os.Getenv("CHECKIN_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file %s regenerated (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file %s unreadable (%v) — regenerate with CHECKIN_UPDATE_GOLDEN=1", path, err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		line := func(l []string) string {
			if i < len(l) {
				return l[i]
			}
			return "<end of output>"
		}
		t.Fatalf("output diverged from %s at line %d:\n  got:  %q\n  want: %q\n"+
			"intentional change? regenerate with CHECKIN_UPDATE_GOLDEN=1 go test ./internal/shard -run %s",
			path, i+1, line(g), line(w), test)
	}
}
