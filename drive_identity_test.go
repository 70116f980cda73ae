package checkin_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// procRun replays spec.Trace on db exactly as Base.Run does, but with each
// client a simulated process looping over core.Apply — the driver the
// closed-loop clients used before they became kernel handlers. Its
// clients start, park and wake where Run's do, and its last client stops
// the kernel by Run's rule (Engine.StopWhenIdle), so the two must leave
// identical stores behind.
func procRun(t *testing.T, db *checkin.DB, spec checkin.RunSpec) *checkin.Metrics {
	t.Helper()
	h, eng, dev := db.Host(), db.Sim(), db.Device()
	// After Load the live collector is the engine's first, still empty.
	m := h.Metrics()
	m.BeginWindow(dev, h.JournalStats(), eng.Now())
	replay := workload.NewReplayer(spec.Trace)
	remaining := min(spec.TotalQueries, int64(len(spec.Trace.Ops)))
	clientsLeft, done := spec.Threads, false
	var end sim.VTime
	for c := range spec.Threads {
		eng.Go(fmt.Sprintf("client-%d", c), func(p *sim.Proc) {
			for remaining > 0 {
				remaining--
				op := replay.Next()
				start, epoch0 := p.Now(), h.CheckpointEpoch()
				core.Apply(h, p, op)
				during := h.CheckpointRunning() || h.CheckpointEpoch() != epoch0
				m.NoteQuery(op, p.Now()-start, during)
			}
			if clientsLeft--; clientsLeft == 0 {
				end, done = p.Now(), true
				eng.StopWhenIdle()
			}
		})
	}
	interval := sim.VTime(db.Config().CheckpointInterval.Nanoseconds())
	var tick func()
	tick = func() {
		if done {
			return
		}
		if !h.CheckpointRunning() {
			h.TriggerCheckpoint()
		}
		eng.Schedule(interval, tick)
	}
	eng.Schedule(interval, tick)
	eng.Run()
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if n := eng.LiveProcs(); n > 0 {
		t.Fatalf("event queue ran dry with %d processes blocked", n)
	}
	m.EndWindow(dev, h.JournalStats(), end)
	return m
}

// allKinds mixes every operation kind the op machines run.
var allKinds = workload.Mix{ReadPct: 35, UpdatePct: 25, RMWPct: 15, ScanPct: 10, DeletePct: 15, ScanLen: 24}

// TestHandlerRunMatchesProcApply: Base.Run, whose clients are kernel
// handlers, leaves the same store as a proc loop over core.Apply on the
// same trace — metrics histograms and counters, kernel clock and event
// count, durable versions and the recovery report — on both engines, with
// every park point of the op machines exercised: the locked checkpoint
// gate, log back-pressure on a small journal half, writes refused by a
// read-only device, reads of logs being checkpointed, memtable and sealed
// memtable hits, scans and deletes.
func TestHandlerRunMatchesProcApply(t *testing.T) {
	cases := []struct {
		name string
		set  func(*checkin.Config)
		mix  workload.Mix
		zipf bool
	}{
		{"mixed", func(*checkin.Config) {}, allKinds, true},
		{"locked-gate", func(c *checkin.Config) { c.LockDuringCheckpoint = true }, allKinds, true},
		{"back-pressure", func(c *checkin.Config) {
			c.Strategy = checkin.StrategyISCA // one CoW per record: slow epochs
			c.JournalHalfMB = 1
			c.Records = checkin.FixedRecords(4096)
			c.JournalSoftFrac = 0.98
			c.CheckpointInterval = time.Second
			c.MemtableEntries = 1 << 20 // the WAL fill alone seals the memtable
		}, checkin.WorkloadWO, true},
		{"read-only", func(c *checkin.Config) {
			c.BlocksPerPlane = 16
			c.EraseFailRate = 0.05
			c.ProgramFailRate = 0.005
			c.SpareBlocksPerDie = 1
		}, checkin.WorkloadA, false},
	}
	for _, engine := range engines {
		for _, tc := range cases {
			t.Run(engine+"/"+tc.name, func(t *testing.T) {
				cfg := checkin.DefaultConfig()
				cfg.Strategy = checkin.StrategyCheckIn
				cfg.Engine = engine
				cfg.Keys = 5000
				cfg.Records = checkin.FixedRecords(512)
				cfg.JournalHalfMB = 4
				cfg.CheckpointInterval = 20 * time.Millisecond
				cfg.MemtableEntries = 400
				tc.set(&cfg)
				open := func() *checkin.DB {
					db, err := checkin.Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := db.Load(); err != nil {
						t.Fatal(err)
					}
					return db
				}
				tr, err := checkin.RecordWorkload(cfg.Keys, cfg.Records, tc.mix, tc.zipf, 12_000, 7)
				if err != nil {
					t.Fatal(err)
				}
				spec := checkin.RunSpec{Threads: 64, TotalQueries: int64(len(tr.Ops)), Trace: tr}

				hdb, pdb := open(), open()
				hm, err := hdb.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				pm := procRun(t, pdb, spec)
				if !reflect.DeepEqual(hm, pm) {
					t.Errorf("metrics differ:\nhandlers %+v\nprocs    %+v", *hm, *pm)
				}
				if h, p := hdb.Sim().Executed(), pdb.Sim().Executed(); h != p {
					t.Errorf("events executed: handlers %d, procs %d", h, p)
				}
				if h, p := hdb.Sim().Now(), pdb.Sim().Now(); h != p {
					t.Errorf("clock: handlers %v, procs %v", h, p)
				}
				if !reflect.DeepEqual(hdb.DurableVersions(), pdb.DurableVersions()) {
					t.Error("durable versions differ")
				}
				if !reflect.DeepEqual(hdb.Host().Recovery(), pdb.Host().Recovery()) {
					t.Error("recovery reports differ")
				}
				if hdb.Host().Parked() != 0 {
					t.Errorf("%d clients parked after Run returned", hdb.Host().Parked())
				}
			})
		}
	}
}
