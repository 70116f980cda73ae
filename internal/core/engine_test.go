package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// testConfig is a small valid journal-engine config.
func testConfig() Config {
	return Config{
		HostConfig: HostConfig{
			Strategy:           StrategyCheckIn,
			Keys:               2000,
			Sizer:              workload.FixedSizer{Size: 512},
			JournalHalfBytes:   4 << 20,
			CheckpointInterval: 50 * sim.Millisecond,
			JournalSoftFrac:    0.7,
			Seed:               1,
		},
		CompressRatio: 0.85,
	}
}

// newTestEngine wires a small engine for a strategy.
func newTestEngine(t *testing.T, s Strategy, mut func(*Config)) (*sim.Engine, *Engine) {
	t.Helper()
	e, dev := newStack(t, s.DefaultMappingUnit())
	cfg := testConfig()
	cfg.Strategy = s
	if mut != nil {
		mut(&cfg)
	}
	en, err := NewEngine(e, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, en
}

func TestEngineRejectsBadConfig(t *testing.T) {
	e, dev := newStack(t, 512)
	cfg := testConfig()
	cfg.Keys = 0
	if _, err := NewEngine(e, dev, cfg); err == nil {
		t.Error("bad config accepted")
	}
	// Layout too large for the device.
	cfg = testConfig()
	cfg.Keys = 100_000_000
	if _, err := NewEngine(e, dev, cfg); err == nil {
		t.Error("oversized layout accepted")
	}
}

func TestUpdateThenGetUsesJournal(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	runProc(e, func(p *sim.Proc) {
		update(en, p, 7, 512)
		get(en, p, 7)
	})
	if en.version[7] != 2 || en.jr.durable[7] != 2 {
		t.Errorf("versions = %d/%d, want 2/2", en.version[7], en.jr.durable[7])
	}
	if en.jr.JMT().Latest(7) == nil {
		t.Error("journal has no entry for the updated key")
	}
}

func TestCheckpointAppliesVersions(t *testing.T) {
	for _, s := range Strategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			e, en := newTestEngine(t, s, nil)
			en.Load()
			runProc(e, func(p *sim.Proc) {
				for i := int64(0); i < 50; i++ {
					update(en, p, i, 512)
				}
				update(en, p, 3, 512) // second version for key 3
				fut := en.TriggerCheckpoint()
				p.Wait(fut)
			})
			if en.CheckpointRunning() {
				t.Fatal("checkpoint still running")
			}
			if en.ckpted[3] != 3 {
				t.Errorf("ckpted[3] = %d, want 3 (load 1 + 2 updates)", en.ckpted[3])
			}
			if en.ckpted[10] != 2 {
				t.Errorf("ckpted[10] = %d, want 2", en.ckpted[10])
			}
			if en.ckpted[1999] != 1 {
				t.Errorf("untouched key checkpointed to %d", en.ckpted[1999])
			}
			// JMT cleared into the new half.
			if en.jr.JMT().Len() != 0 {
				t.Error("active JMT not empty after checkpoint")
			}
			if en.Metrics().Checkpoints() != 0 {
				// metrics are reset by Run; TriggerCheckpoint records on
				// the current collector
				_ = en
			}
		})
	}
}

func TestCheckpointByStrategyFlashBehavior(t *testing.T) {
	// The defining asymmetry: copy-family strategies program checkpoint
	// pages; Check-In (aligned remap) barely does.
	programs := map[Strategy]uint64{}
	for _, s := range []Strategy{StrategyBaseline, StrategyISCB, StrategyCheckIn} {
		e, en := newTestEngine(t, s, nil)
		en.Load()
		pre := en.dev.FTL().Stats().ProgramsByTag[3-3] // placate linter; recomputed below
		_ = pre
		preCkpt := en.dev.FTL().Stats()
		runProc(e, func(p *sim.Proc) {
			for i := int64(0); i < 200; i++ {
				update(en, p, i, 512)
			}
			p.Wait(en.TriggerCheckpoint())
		})
		post := en.dev.FTL().Stats()
		programs[s] = post.RedundantWrites() - preCkpt.RedundantWrites()
	}
	if programs[StrategyCheckIn] >= programs[StrategyBaseline]/4 {
		t.Errorf("Check-In redundant writes %d not ≪ baseline %d",
			programs[StrategyCheckIn], programs[StrategyBaseline])
	}
	if programs[StrategyISCB] == 0 {
		t.Error("ISC-B checkpoint did no device copies")
	}
}

// remapDelta runs 100 512-byte updates and a checkpoint on a loaded
// engine of strategy s and returns the units the FTL remapped purely and
// by read-merge-write meanwhile.
func remapDelta(t *testing.T, s Strategy) (remaps, rmws uint64) {
	e, en := newTestEngine(t, s, nil)
	en.Load()
	pre := en.dev.FTL().Stats()
	runProc(e, func(p *sim.Proc) {
		for i := int64(0); i < 100; i++ {
			update(en, p, i, 512)
		}
		p.Wait(en.TriggerCheckpoint())
	})
	post := en.dev.FTL().Stats()
	return post.Remaps - pre.Remaps, post.RemapRMWs - pre.RemapRMWs
}

func TestCheckInRemapSharing(t *testing.T) {
	remaps, rmws := remapDelta(t, StrategyCheckIn)
	if remaps == 0 {
		t.Fatalf("no pure remaps recorded: %d remaps, %d RMWs", remaps, rmws)
	}
	if rmws > remaps/10 {
		t.Errorf("aligned 512B records should remap purely: %d remaps, %d RMWs", remaps, rmws)
	}
}

func TestISCCUnalignedRemapRMWs(t *testing.T) {
	remaps, rmws := remapDelta(t, StrategyISCC)
	if rmws == 0 {
		t.Fatalf("ISC-C with header-offset logs should RMW: %d remaps, %d RMWs", remaps, rmws)
	}
}

func TestRunWorkloadBasics(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	_ = e
	en.Load()
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 5000, Mix: workload.WorkloadA, Zipfian: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 5000 {
		t.Errorf("Queries = %d", m.Queries)
	}
	if m.ReadQueries == 0 || m.WriteQueries == 0 {
		t.Error("workload A must mix reads and writes")
	}
	rf := float64(m.ReadQueries) / float64(m.Queries)
	if rf < 0.45 || rf > 0.55 {
		t.Errorf("read fraction %.3f, want ~0.5", rf)
	}
	if m.Elapsed == 0 || m.ThroughputQPS() == 0 {
		t.Error("no elapsed time / throughput")
	}
	if m.Checkpoints() == 0 {
		t.Error("no checkpoints at 50ms interval")
	}
	if m.WriteQueryPayload == 0 {
		t.Error("write payload not accounted")
	}
	if m.AllLat.Count() != m.Queries {
		t.Errorf("latency samples %d != queries %d", m.AllLat.Count(), m.Queries)
	}
	if s := m.Summary(); len(s) < 100 {
		t.Errorf("Summary suspiciously short: %q", s)
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	if _, err := en.Run(RunSpec{Threads: 0, TotalQueries: 10, Mix: workload.WorkloadA}); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestWorkloadFDoesRMW(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	m, err := en.Run(RunSpec{Threads: 2, TotalQueries: 2000, Mix: workload.WorkloadF, Zipfian: false})
	if err != nil {
		t.Fatal(err)
	}
	// RMW counts as a write query; roughly half the total.
	wf := float64(m.WriteQueries) / float64(m.Queries)
	if wf < 0.42 || wf > 0.58 {
		t.Errorf("write (rmw) fraction %.3f, want ~0.5", wf)
	}
}

func TestDeterministicRuns(t *testing.T) {
	results := make([]string, 2)
	for i := range results {
		_, en := newTestEngine(t, StrategyCheckIn, nil)
		en.Load()
		m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 3000, Mix: workload.WorkloadA, Zipfian: true})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = fmt.Sprintf("%d %d %d %v %d %d",
			m.Queries, m.ReadQueries, m.WriteQueryPayload, m.Elapsed,
			m.FlashPrograms(), m.Checkpoints())
	}
	if results[0] != results[1] {
		t.Errorf("identical configs diverged:\n%s\n%s", results[0], results[1])
	}
}

func TestLockDuringCheckpointStallsQueries(t *testing.T) {
	_, en := newTestEngine(t, StrategyBaseline, func(c *Config) {
		c.LockDuringCheckpoint = true
	})
	en.Load()
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 4000, Mix: workload.WorkloadWO, Zipfian: false})
	if err != nil {
		t.Fatal(err)
	}
	if m.Checkpoints() == 0 {
		t.Fatal("no checkpoints happened")
	}
	// With admission locked, the max write latency must cover at least
	// one checkpoint duration.
	maxCkpt := m.MaxCheckpointTime()
	if sim.VTime(m.WriteLat.Max()) < maxCkpt/2 {
		t.Errorf("max write latency %v does not reflect lock over checkpoint %v",
			sim.VTime(m.WriteLat.Max()), maxCkpt)
	}
}

// simulateRecovery is DB.SimulateRecovery for a bare engine.
func simulateRecovery(en *Engine) *RecoveryReport {
	rep := en.Recovery()
	TimeRecovery(en.eng, en.dev, rep)
	return rep
}

func TestRecoveryMatchesDurableVersions(t *testing.T) {
	for _, s := range Strategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			_, en := newTestEngine(t, s, nil)
			en.Load()
			if _, err := en.Run(RunSpec{Threads: 4, TotalQueries: 4000, Mix: workload.WorkloadA, Zipfian: true}); err != nil {
				t.Fatal(err)
			}
			rep := simulateRecovery(en)
			durable := rep.Durable
			for k := range durable {
				if rep.Recovered[k] != durable[k] {
					t.Fatalf("key %d: recovered v%d, durable v%d",
						k, rep.Recovered[k], durable[k])
				}
			}
			if rep.FromCheckpoint == 0 {
				t.Error("recovery restored nothing from the checkpoint")
			}
		})
	}
}

func TestRecoveryMidCheckpoint(t *testing.T) {
	// Crash while a checkpoint is running: the snapshot half's logs are
	// still on flash, so recovery must see them.
	e, en := newTestEngine(t, StrategyBaseline, nil)
	en.Load()
	triggered := false
	runProc(e, func(p *sim.Proc) {
		for i := int64(0); i < 300; i++ {
			update(en, p, i%50, 512)
		}
		en.TriggerCheckpoint()
		triggered = true
		// crash "now": do not wait for the checkpoint
	})
	if !triggered {
		t.Fatal("setup failed")
	}
	rep := simulateRecovery(en)
	durable := en.jr.durable
	for k := 0; k < 50; k++ {
		if rep.Recovered[k] < durable[k] {
			t.Fatalf("key %d: recovered v%d < durable v%d", k, rep.Recovered[k], durable[k])
		}
	}
}

func TestUncommittedUpdatesNotRecovered(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	// Append without driving the engine: logs buffered, not committed.
	done := false
	e.Go("writer", func(p *sim.Proc) {
		en.version[9]++
		en.jr.Append(9, en.version[9], 512)
		done = true
	})
	for !done {
		e.RunUntil(e.Now() + sim.Microsecond)
	}
	rep := simulateRecovery(en)
	if rep.Recovered[9] != 1 {
		t.Errorf("uncommitted update recovered: v%d", rep.Recovered[9])
	}
	if rep.InMemory[9] != 2 {
		t.Errorf("in-memory version = %d, want 2", rep.InMemory[9])
	}
}

func TestJournalBackpressureTriggersCheckpoint(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, func(c *Config) {
		c.JournalHalfBytes = 1 << 16           // 64 KB: fills fast
		c.CheckpointInterval = 10 * sim.Second // longer than the run
	})
	en.Load()
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 3000, Mix: workload.WorkloadWO, Zipfian: false})
	if err != nil {
		t.Fatal(err)
	}
	if m.Elapsed >= 10*sim.Second {
		t.Fatalf("run took %v: the periodic ticker may have fired", m.Elapsed)
	}
	// 3000 × ~512B ≫ 64 KB half: the soft/full triggers must have fired.
	if m.Checkpoints() == 0 {
		t.Error("journal pressure never triggered a checkpoint")
	}
}

// TestRunReturnsItsOwnCollector: a run's window opens on the base's
// collector, and a collector a run has returned is never written again: a
// checkpoint after the run records into a fresh collector, which the next
// run then opens its window on.
func TestRunReturnsItsOwnCollector(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	live := en.Metrics()
	spec := RunSpec{Threads: 4, TotalQueries: 2000, Mix: workload.WorkloadA}
	m1, err := en.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != live {
		t.Error("Run allocated a collector although the base's had opened no window")
	}
	before := *m1
	runProc(e, func(p *sim.Proc) { p.Wait(en.TriggerCheckpoint()) })
	if *m1 != before {
		t.Error("a checkpoint after the run wrote into the collector the run returned")
	}
	if en.Metrics().Checkpoints() != 1 {
		t.Errorf("the live collector holds %d checkpoints, want the one after the run", en.Metrics().Checkpoints())
	}
	live = en.Metrics()
	m2, err := en.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != live || m2 == m1 || *m1 != before {
		t.Error("the second run did not open its window on the live collector alone")
	}
	if m2.Queries != 2000 {
		t.Errorf("second run counted %d queries, want 2000", m2.Queries)
	}
}

func TestMeanHelpers(t *testing.T) {
	m := NewMetrics()
	if m.MeanCheckpointTime() != 0 {
		t.Error("empty metrics mean should be 0")
	}
	m.NoteCheckpoint(10 * sim.Millisecond)
	m.NoteCheckpoint(30 * sim.Millisecond)
	if m.MeanCheckpointTime() != 20*sim.Millisecond {
		t.Errorf("MeanCheckpointTime = %v", m.MeanCheckpointTime())
	}
	if m.MaxCheckpointTime() != 30*sim.Millisecond {
		t.Errorf("MaxCheckpointTime = %v", m.MaxCheckpointTime())
	}
}

func TestMetricsStreamingNoAllocs(t *testing.T) {
	// Checkpoint accounting is O(1): arbitrarily long runs must not grow
	// the metrics.
	m := NewMetrics()
	if a := testing.AllocsPerRun(200, func() {
		m.NoteCheckpoint(3 * sim.Millisecond)
	}); a != 0 {
		t.Errorf("NoteCheckpoint allocates %v per call, want 0", a)
	}
}

// TestMetricsLifetime pins Equation (1) over the measured window: PECmax
// divided by the blocks the window's programs consume, programs before the
// window excluded, and 0 for a window that programmed nothing.
func TestMetricsLifetime(t *testing.T) {
	m := NewMetrics()
	m.startNand.Programs = 500
	m.EndNand.Programs = 500 + 640 // 10 blocks of 64 pages
	if got := m.Lifetime(3000, 64); got != 300 {
		t.Errorf("Lifetime = %v, want 3000 / 10 = 300", got)
	}
	m.EndNand.Programs = 500
	if got := m.Lifetime(3000, 64); got != 0 {
		t.Errorf("Lifetime with no window programs = %v, want 0", got)
	}
}

// TestMetricsFlashEnergy checks that the window's energy counts only the
// window's operations: what the array did before BeginWindow stays out.
func TestMetricsFlashEnergy(t *testing.T) {
	m := NewMetrics()
	m.startNand = nand.Stats{Reads: 1000, Programs: 500, Erases: 40}
	m.EndNand = nand.Stats{Reads: 1000 + 20, Programs: 500 + 10, Erases: 40 + 2}
	tim := nand.Timing{}.WithDefaultEnergy()
	m.timing = tim
	want := float64(20*tim.ReadEnergyNJ+10*tim.ProgramEnergyNJ+2*tim.EraseEnergyNJ) / 1e6
	if got := m.FlashEnergyMJ(); got != want {
		t.Errorf("FlashEnergyMJ = %v mJ, want %v", got, want)
	}
}

func TestTimelineBoundedOnLongRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long sampled run in -short mode")
	}
	// A sampling interval far below the run length overflows the timeline
	// cap many times over; retained rows must stay bounded while still
	// spanning the whole run.
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	m, err := en.Run(RunSpec{
		Threads: 4, TotalQueries: 10_000, Mix: workload.WorkloadA, Zipfian: true,
		SampleInterval: 2 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := m.Timeline.Len()
	if n > stats.DefaultTimelineCap {
		t.Errorf("timeline rows = %d exceed cap %d", n, stats.DefaultTimelineCap)
	}
	if n < stats.DefaultTimelineCap/2 {
		t.Errorf("timeline rows = %d, want saturation (>= %d) at this sampling rate",
			n, stats.DefaultTimelineCap/2)
	}
	last, _ := m.Timeline.At(n - 1)
	if sim.VTime(last) < m.Elapsed/2 {
		t.Errorf("timeline ends at %v, run elapsed %v", sim.VTime(last), m.Elapsed)
	}
}

func TestTimelineSampling(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	m, err := en.Run(RunSpec{
		Threads: 4, TotalQueries: 4000, Mix: workload.WorkloadA, Zipfian: true,
		SampleInterval: 5 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Timeline == nil || m.Timeline.Len() == 0 {
		t.Fatal("timeline not sampled")
	}
	sum := 0.0
	for i := range m.Timeline.Len() {
		_, vals := m.Timeline.At(i) // kqps is the first series
		sum += vals[0]
	}
	if sum <= 0 {
		t.Error("timeline recorded no throughput")
	}
}

func TestTraceReplayIdenticalAcrossStrategies(t *testing.T) {
	// Record one op stream, replay it against two configurations: both
	// must execute exactly the same queries.
	gen, err := workload.NewGenerator(workload.Uniform{Keys: 2000},
		workload.FixedSizer{Size: 512}, workload.WorkloadA, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.RecordTrace(gen, 3000)

	var payloads [2]uint64
	for i, s := range []Strategy{StrategyBaseline, StrategyCheckIn} {
		_, en := newTestEngine(t, s, nil)
		en.Load()
		m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 99999, Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		if m.Queries != 3000 {
			t.Fatalf("%v replayed %d queries, want 3000", s, m.Queries)
		}
		payloads[i] = m.WriteQueryPayload
	}
	if payloads[0] != payloads[1] {
		t.Errorf("replayed write payloads differ: %d vs %d", payloads[0], payloads[1])
	}
}

func TestScanWorkloadE(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	preReads := en.dev.FTL().Array().Stats().Reads
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 1500, Mix: workload.WorkloadE, Zipfian: false})
	if err != nil {
		t.Fatal(err)
	}
	// Scans count as read queries (~95%).
	rf := float64(m.ReadQueries) / float64(m.Queries)
	if rf < 0.9 {
		t.Errorf("scan fraction %.2f, want ~0.95", rf)
	}
	if en.dev.FTL().Array().Stats().Reads == preReads {
		t.Error("scans issued no flash reads")
	}
	// A 50-record scan moves ~25 KB over the link even when fully cached:
	// its latency must comfortably exceed the host-issue overhead alone.
	if m.ReadLat.Mean() < 20_000 { // > 20µs
		t.Errorf("scan mean latency %.0fns implausibly low", m.ReadLat.Mean())
	}
}

func TestDeleteMixInWorkload(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	mix := workload.Mix{ReadPct: 50, UpdatePct: 40, DeletePct: 10}
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 2000, Mix: mix, Zipfian: false})
	if err != nil {
		t.Fatal(err)
	}
	wf := float64(m.WriteQueries) / float64(m.Queries)
	if wf < 0.45 || wf > 0.55 {
		t.Errorf("write (update+delete) fraction %.2f, want ~0.5", wf)
	}
}

// TestFailLeavesClientsParked: a run that Fail ends leaves its clients
// parked mid-query; Parked counts them and a fork (the engine half of a
// snapshot fork) refuses the store with an error naming them.
func TestFailLeavesClientsParked(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	errStop := fmt.Errorf("stopped")
	e.Schedule(5*sim.Millisecond, func() { en.Fail(errStop) })
	spec := RunSpec{Threads: 4, TotalQueries: 1_000_000, Mix: workload.WorkloadA}
	if _, err := en.Run(spec); err != errStop {
		t.Fatalf("Run returned %v, want %v", err, errStop)
	}
	if en.Parked() != spec.Threads {
		t.Fatalf("%d clients parked after Fail, want %d", en.Parked(), spec.Threads)
	}
	if _, err := ForkEngine(e, en.Device(), en.cfg, en); err == nil || !strings.Contains(err.Error(), "parked") {
		t.Fatalf("copy of a store with parked clients: err %v, want a refusal naming them", err)
	}
}
