package checkin_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/trace"
	"github.com/checkin-kv/checkin/internal/workload"
)

func smallConfig(s checkin.Strategy) checkin.Config {
	cfg := checkin.DefaultConfig()
	cfg.Strategy = s
	cfg.Keys = 5_000
	cfg.CheckpointInterval = 100 * time.Millisecond
	return cfg
}

func TestOpenAllStrategies(t *testing.T) {
	for _, s := range checkin.Strategies {
		db, err := checkin.Open(smallConfig(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if db.Config().Strategy != s {
			t.Errorf("%v: config strategy mismatch", s)
		}
		// Defaults fill zero fields.
		if db.Config().QueueDepth == 0 || db.Config().PCIeMBps == 0 {
			t.Errorf("%v: zero fields not defaulted", s)
		}
	}
}

func TestOpenRejectsOversizedLayout(t *testing.T) {
	cfg := smallConfig(checkin.StrategyCheckIn)
	cfg.Keys = 10_000_000
	if _, err := checkin.Open(cfg); err == nil {
		t.Fatal("oversized layout accepted")
	}
}

// TestOpenRejectsNegativeDurationsAndCounts: a negative duration is an
// error, not a wrapped-around virtual time that panics the scheduler or
// silently runs a near-zero-latency device; a negative count is an error,
// not a hang (MetaFlushEntries), a wrapped-around budget (MaxPECycles) or
// a silent default.
func TestOpenRejectsNegativeDurationsAndCounts(t *testing.T) {
	for name, mutate := range map[string]func(*checkin.Config){
		"CheckpointInterval": func(c *checkin.Config) { c.CheckpointInterval = -10 * time.Millisecond },
		"ReadLatency":        func(c *checkin.Config) { c.ReadLatency = -time.Microsecond },
		"ProgramLatency":     func(c *checkin.Config) { c.ProgramLatency = -time.Microsecond },
		"EraseLatency":       func(c *checkin.Config) { c.EraseLatency = -time.Microsecond },
		"CommandTimeout":     func(c *checkin.Config) { c.CommandTimeout = -time.Millisecond },
		"MetaFlushEntries":   func(c *checkin.Config) { c.MetaFlushEntries = -1 },
		"MaxPECycles":        func(c *checkin.Config) { c.MaxPECycles = -1 },
		"MemtableEntries":    func(c *checkin.Config) { c.Engine, c.MemtableEntries = "lsm", -1 },
		"MapCacheMB":         func(c *checkin.Config) { c.MapCacheMB = -1 },
		"CMTEntries":         func(c *checkin.Config) { c.FTLMap, c.CMTEntries = "dftl", -1 },
		"SpareBlocksPerDie":  func(c *checkin.Config) { c.ProgramFailRate, c.SpareBlocksPerDie = 0.01, -1 },
		"TraceCapacity":      func(c *checkin.Config) { c.TraceCapacity = -1 },
	} {
		cfg := smallConfig(checkin.StrategyCheckIn)
		mutate(&cfg)
		_, err := checkin.Open(cfg)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Open returned %v, want an error naming the field", name, err)
		}
	}
}

// TestOpenRejectsUnknownFTLMap: Open is the one check of the mapping model
// both commands' -ftlmap flags rely on, so its error names every model.
func TestOpenRejectsUnknownFTLMap(t *testing.T) {
	cfg := smallConfig(checkin.StrategyCheckIn)
	cfg.FTLMap = "bogus"
	_, err := checkin.Open(cfg)
	if err == nil {
		t.Fatal("unknown FTLMap accepted")
	}
	for _, model := range []string{"dram", " dftl ", "dftl-basic"} {
		if !strings.Contains(err.Error(), model) {
			t.Errorf("Open error %q does not list %q", err, model)
		}
	}
}

// TestOpenRejectsPast32BitGeometry: the FTL stores slot and logical-unit
// addresses in 32 bits, so a device past math.MaxInt32 slots or logical
// units is an error from Open, found by arithmetic before any layer
// allocates: not a panic, a wrapped address or an out-of-memory crash.
// With 4 channels × 2 dies × 2 planes, 64 pages of 4 KiB and 512 B units a
// block holds 512 slots: 2^18 blocks per plane make 2^31 slots, one past
// the bound, of which the default 12% over-provisioning leaves 1.92e9
// logical units; 293,602 blocks per plane leave 2,147,488,914 logical
// units, the first plane size past the bound (293,601 leave 2,147,481,600).
func TestOpenRejectsPast32BitGeometry(t *testing.T) {
	for _, tc := range []struct {
		want   string
		blocks int
	}{
		{"slots", 1 << 18},
		{"logical units", 293_602},
	} {
		cfg := smallConfig(checkin.StrategyCheckIn)
		cfg.Channels, cfg.DiesPerChannel, cfg.PlanesPerDie = 4, 2, 2
		cfg.BlocksPerPlane, cfg.PagesPerBlock, cfg.PageSizeBytes = tc.blocks, 64, 4096
		cfg.MappingUnit = 512
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := checkin.Open(cfg)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d blocks per plane: Open returned %v, want an error naming the %s", tc.blocks, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%d blocks per plane: Open allocated %d bytes before refusing, want no tables (at most 1 MiB)", tc.blocks, grew)
		}
	}
}

// TestRunRejectsUnreplayableTrace: a trace Run cannot replay is an error
// from Run on both engines, returned before any simulated client starts
// (the clock does not move), not a panic inside one, a hang or a corrupted
// result: an empty trace, a key past Config.Keys, an unknown kind, a size
// below 1, and a write larger than the log ever admits — one 8 MiB half
// holds no 8, 9 or 17 MiB record, which would trigger checkpoints forever.
// Each bad op sits in the middle of a replayable trace. Every Run is bounded
// by a deadline, so a hang fails the test instead of stalling the suite. A
// 4 MiB write, which a half does hold, still replays.
func TestRunRejectsUnreplayableTrace(t *testing.T) {
	const keys = 2000
	wide, err := checkin.RecordWorkload(50_000, checkin.FixedRecords(512), checkin.WorkloadA, true, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	with := func(op workload.Op) *checkin.Trace {
		tr, err := checkin.RecordWorkload(keys, checkin.FixedRecords(512), checkin.WorkloadA, true, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr.Ops[500] = op
		return tr
	}
	update := func(size int32) workload.Op { return workload.Op{Kind: workload.OpUpdate, Key: 7, Size: size} }
	bad := []struct {
		name  string
		trace *checkin.Trace
	}{
		{"empty", &checkin.Trace{}},
		{"wide", wide},
		{"unknown-kind", with(workload.Op{Kind: 9, Key: 7, Size: 512})},
		{"zero-size-read", with(workload.Op{Kind: workload.OpRead, Key: 7})},
		{"negative-size", with(update(-100))},
		{"half-write", with(update(8 << 20))},
		{"9MiB-write", with(update(9 << 20))},
		{"17MiB-rmw", with(workload.Op{Kind: workload.OpReadModifyWrite, Key: 7, Size: 17 << 20})},
	}
	// run replays tr on db, failing the test if Run has not returned in
	// time; the stuck Run's goroutine is then left behind.
	run := func(db *checkin.DB, tr *checkin.Trace) (*checkin.Metrics, bool, error) {
		type result struct {
			m   *checkin.Metrics
			err error
		}
		done := make(chan result, 1)
		go func() {
			m, err := db.Run(checkin.RunSpec{Threads: 4, TotalQueries: 1000, Trace: tr})
			done <- result{m, err}
		}()
		select {
		case r := <-done:
			return r.m, true, r.err
		case <-time.After(10 * time.Second):
			return nil, false, nil
		}
	}
	open := func(t *testing.T, engine string) *checkin.DB {
		cfg := smallConfig(checkin.StrategyCheckIn)
		cfg.Engine = engine
		cfg.Keys = keys
		cfg.JournalHalfMB = 8
		db, err := checkin.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Load(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, engine := range checkin.EngineNames() {
		for _, c := range bad {
			t.Run(engine+"/"+c.name, func(t *testing.T) {
				db := open(t, engine)
				before := db.Sim().Now()
				_, ok, err := run(db, c.trace)
				if !ok {
					t.Fatal("Run did not return within the deadline")
				}
				if err == nil || !strings.Contains(err.Error(), "trace") {
					t.Errorf("Run returned %v, want a trace error", err)
				}
				if now := db.Sim().Now(); now != before {
					t.Errorf("the rejected Run moved the clock from %v to %v", before, now)
				}
				if n := db.Sim().LiveProcs(); n != 0 {
					t.Errorf("%d processes left after the rejected run", n)
				}
			})
		}
		t.Run(engine+"/4MiB-write", func(t *testing.T) {
			m, ok, err := run(open(t, engine), with(update(4<<20)))
			if !ok || err != nil {
				t.Fatalf("Run returned %v (in time: %v)", err, ok)
			}
			if m.Queries != 1000 {
				t.Errorf("%d queries finished, want 1000", m.Queries)
			}
		})
	}
}

func TestMappingUnitDefaultsPerStrategy(t *testing.T) {
	for _, s := range checkin.Strategies {
		db, err := checkin.Open(smallConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		got := db.Config().MappingUnit
		want := s.DefaultMappingUnit()
		if got != want {
			t.Errorf("%v: mapping unit %d, want %d", s, got, want)
		}
	}
}

func TestEndToEndAllStrategies(t *testing.T) {
	for _, s := range checkin.Strategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			db, err := checkin.Open(smallConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			db.Load()
			m, err := db.Run(checkin.RunSpec{
				Threads: 8, TotalQueries: 12_000,
				Mix: checkin.WorkloadA, Zipfian: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.Queries != 12_000 {
				t.Errorf("Queries = %d", m.Queries)
			}
			if m.Checkpoints() == 0 {
				t.Error("no checkpoints completed")
			}
			if m.ThroughputQPS() <= 0 {
				t.Error("no throughput")
			}
			// Recovery must reproduce the durable state for every strategy.
			rep := db.SimulateRecovery()
			for k, v := range db.DurableVersions() {
				if rep.Recovered[k] != v {
					t.Fatalf("key %d: recovered v%d, durable v%d", k, rep.Recovered[k], v)
				}
			}
		})
	}
}

func TestRedundantWriteOrdering(t *testing.T) {
	// The paper's headline: redundant writes Baseline ≫ ISC-C > Check-In.
	results := map[checkin.Strategy]uint64{}
	for _, s := range []checkin.Strategy{checkin.StrategyBaseline, checkin.StrategyISCC, checkin.StrategyCheckIn} {
		db, err := checkin.Open(smallConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		db.Load()
		m, err := db.Run(checkin.RunSpec{
			Threads: 8, TotalQueries: 20_000,
			Mix: checkin.WorkloadWO, Zipfian: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		results[s] = m.RedundantWrites()
	}
	base, iscc, ci := results[checkin.StrategyBaseline], results[checkin.StrategyISCC], results[checkin.StrategyCheckIn]
	if !(ci < iscc && iscc < base) {
		t.Errorf("redundant writes ordering violated: baseline=%d iscc=%d checkin=%d", base, iscc, ci)
	}
	if ci > base/5 {
		t.Errorf("Check-In redundant writes %d not ≪ baseline %d", ci, base)
	}
}

func TestCheckpointTimeOrdering(t *testing.T) {
	// Locked checkpoint time: remap strategies far below the copy family.
	results := map[checkin.Strategy]time.Duration{}
	for _, s := range []checkin.Strategy{checkin.StrategyBaseline, checkin.StrategyCheckIn} {
		cfg := smallConfig(s)
		cfg.LockDuringCheckpoint = true
		db, err := checkin.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db.Load()
		m, err := db.Run(checkin.RunSpec{
			Threads: 8, TotalQueries: 15_000,
			Mix: checkin.WorkloadWO, Zipfian: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Checkpoints() == 0 {
			t.Fatalf("%v: no checkpoints", s)
		}
		results[s] = time.Duration(m.MeanCheckpointTime())
	}
	if results[checkin.StrategyCheckIn]*3 > results[checkin.StrategyBaseline] {
		t.Errorf("Check-In checkpoint %v not ≪ baseline %v",
			results[checkin.StrategyCheckIn], results[checkin.StrategyBaseline])
	}
}

func TestDeterministicPublicRuns(t *testing.T) {
	out := make([]string, 2)
	for i := range out {
		db, err := checkin.Open(smallConfig(checkin.StrategyCheckIn))
		if err != nil {
			t.Fatal(err)
		}
		db.Load()
		m, err := db.Run(checkin.RunSpec{
			Threads: 4, TotalQueries: 5_000,
			Mix: checkin.WorkloadF, Zipfian: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprintf("%v %d %d %d", m.Elapsed, m.FlashPrograms(), m.Checkpoints(), m.ReadQueries)
	}
	if out[0] != out[1] {
		t.Errorf("runs diverged: %s vs %s", out[0], out[1])
	}
}

func TestSeedChangesRun(t *testing.T) {
	elapsed := make([]time.Duration, 2)
	for i, seed := range []int64{1, 2} {
		cfg := smallConfig(checkin.StrategyCheckIn)
		cfg.Seed = seed
		db, err := checkin.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db.Load()
		m, err := db.Run(checkin.RunSpec{Threads: 4, TotalQueries: 5_000, Mix: checkin.WorkloadA, Zipfian: true})
		if err != nil {
			t.Fatal(err)
		}
		elapsed[i] = time.Duration(m.Elapsed)
	}
	if elapsed[0] == elapsed[1] {
		t.Error("different seeds produced identical elapsed times (suspicious)")
	}
}

func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range checkin.Strategies {
		got, err := checkin.ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := checkin.ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestRecordSizers(t *testing.T) {
	f := checkin.FixedRecords(777)
	if f.SizeOf(0) != 777 {
		t.Error("FixedRecords wrong")
	}
	m := checkin.MixedRecords("mix", []int{100, 200}, []int{1, 1})
	if sz := m.SizeOf(42); sz != 100 && sz != 200 {
		t.Errorf("MixedRecords produced %d", sz)
	}
	for _, p := range []checkin.Sizer{checkin.PatternP1, checkin.PatternP2, checkin.PatternP3, checkin.PatternP4} {
		if !strings.HasPrefix(p.Name(), "P") {
			t.Errorf("pattern name %q", p.Name())
		}
	}
}

func TestJournalStatsExposed(t *testing.T) {
	db, err := checkin.Open(smallConfig(checkin.StrategyCheckIn))
	if err != nil {
		t.Fatal(err)
	}
	db.Load()
	m, err := db.Run(checkin.RunSpec{Threads: 4, TotalQueries: 4_000, Mix: checkin.WorkloadWO, Zipfian: false})
	if err != nil {
		t.Fatal(err)
	}
	js := db.JournalStats()
	if js.Logs == 0 || js.StoredBytes == 0 {
		t.Errorf("journal stats empty: %+v", js)
	}
	if js.SpaceOverhead() < 1 {
		t.Errorf("aligned journaling overhead %v < 1", js.SpaceOverhead())
	}
	if cfg := db.Config(); m.Lifetime(cfg.MaxPECycles, cfg.PagesPerBlock) <= 0 {
		t.Error("lifetime projection not positive")
	}
}

func TestMixReexports(t *testing.T) {
	if checkin.WorkloadA.ReadPct != 50 || checkin.WorkloadA.UpdatePct != 50 {
		t.Error("WorkloadA wrong")
	}
	if checkin.WorkloadF.RMWPct != 50 {
		t.Error("WorkloadF wrong")
	}
	if checkin.WorkloadWO.UpdatePct != 100 {
		t.Error("WorkloadWO wrong")
	}
}

func TestSimulateSPOR(t *testing.T) {
	db, err := checkin.Open(smallConfig(checkin.StrategyCheckIn))
	if err != nil {
		t.Fatal(err)
	}
	db.Load()
	if _, err := db.Run(checkin.RunSpec{Threads: 8, TotalQueries: 10_000, Mix: checkin.WorkloadA, Zipfian: true}); err != nil {
		t.Fatal(err)
	}
	rep := db.SimulateSPOR()
	if rep.Mismatches != 0 {
		t.Fatalf("device SPOR diverged: %s", rep)
	}
	if rep.ScannedPages == 0 || rep.BoundUnits == 0 {
		t.Errorf("SPOR did nothing: %s", rep)
	}
	if rep.Duration == 0 {
		t.Error("SPOR scan cost not modeled")
	}
}

func TestTracing(t *testing.T) {
	cfg := smallConfig(checkin.StrategyCheckIn)
	cfg.TraceCapacity = 4096
	db, err := checkin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Load()
	if _, err := db.Run(checkin.RunSpec{Threads: 8, TotalQueries: 10_000, Mix: checkin.WorkloadWO, Zipfian: true}); err != nil {
		t.Fatal(err)
	}
	tr := db.Trace()
	if tr == nil {
		t.Fatal("tracer nil despite TraceCapacity")
	}
	if tr.Count(trace.KindCheckpointBegin) == 0 || tr.Count(trace.KindCheckpointEnd) == 0 {
		t.Error("no checkpoint events traced")
	}
	if tr.Count(trace.KindJournalCommit) == 0 {
		t.Error("no journal commits traced")
	}
	if tr.Count(trace.KindJournalSwitch) == 0 {
		t.Error("no journal switches traced")
	}
	// Begin/end must pair up.
	if tr.Count(trace.KindCheckpointBegin) != tr.Count(trace.KindCheckpointEnd) {
		t.Errorf("unbalanced checkpoint events: %d begins, %d ends",
			tr.Count(trace.KindCheckpointBegin), tr.Count(trace.KindCheckpointEnd))
	}
	// Disabled by default.
	db2, _ := checkin.Open(smallConfig(checkin.StrategyCheckIn))
	if db2.Trace() != nil {
		t.Error("tracer on by default")
	}
}

func TestRecordWorkloadAndEnergy(t *testing.T) {
	tr, err := checkin.RecordWorkload(1000, checkin.FixedRecords(512), checkin.WorkloadA, true, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != 500 {
		t.Fatalf("trace length %d", len(tr.Ops))
	}
	if _, err := checkin.RecordWorkload(1000, checkin.FixedRecords(512), checkin.Mix{ReadPct: 5}, false, 10, 1); err == nil {
		t.Error("bad mix accepted")
	}
	// uniform path
	tr2, err := checkin.RecordWorkload(1000, checkin.FixedRecords(512), checkin.WorkloadWO, false, 100, 7)
	if err != nil || len(tr2.Ops) != 100 {
		t.Fatalf("uniform record failed: %v", err)
	}

	db, err := checkin.Open(smallConfig(checkin.StrategyCheckIn))
	if err != nil {
		t.Fatal(err)
	}
	db.Load()
	if db.FlashEnergyMJ() <= 0 {
		t.Error("load consumed no flash energy")
	}
}

func TestOpenFillsTimingDefaults(t *testing.T) {
	cfg := checkin.Config{Strategy: checkin.StrategyBaseline, Keys: 1000}
	db, err := checkin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := db.Config()
	if got.ReadLatency == 0 || got.ProgramLatency == 0 || got.EraseLatency == 0 ||
		got.OverProvision == 0 || got.CheckpointInterval == 0 || got.JournalSoftFrac == 0 ||
		got.Seed == 0 || got.Records == nil || got.CompressRatio == 0 {
		t.Errorf("defaults not filled: %+v", got)
	}
}

func TestWorkloadEEndToEnd(t *testing.T) {
	db, err := checkin.Open(smallConfig(checkin.StrategyCheckIn))
	if err != nil {
		t.Fatal(err)
	}
	db.Load()
	m, err := db.Run(checkin.RunSpec{Threads: 4, TotalQueries: 1000, Mix: checkin.WorkloadE, Zipfian: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 1000 {
		t.Errorf("Queries = %d", m.Queries)
	}
}

func TestGCPolicyConfig(t *testing.T) {
	for _, pol := range []string{"", "greedy", "cost-benefit", "fifo"} {
		cfg := smallConfig(checkin.StrategyCheckIn)
		cfg.GCPolicy = pol
		if _, err := checkin.Open(cfg); err != nil {
			t.Errorf("policy %q rejected: %v", pol, err)
		}
	}
	cfg := smallConfig(checkin.StrategyCheckIn)
	cfg.GCPolicy = "bogus"
	if _, err := checkin.Open(cfg); err == nil {
		t.Error("bogus GC policy accepted")
	}
}
