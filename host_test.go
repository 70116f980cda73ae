package checkin_test

import (
	"slices"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/lsm"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// engines lists both host-engine backends; the tests below run every case
// on each.
var engines = []string{"journal", "lsm"}

// hostTestDB opens and loads a small store of 512-byte records on engine.
func hostTestDB(t *testing.T, engine string) *checkin.DB {
	t.Helper()
	cfg := checkin.DefaultConfig()
	cfg.Engine = engine
	cfg.Keys = 2000
	cfg.Records = checkin.FixedRecords(512)
	cfg.JournalHalfMB = 4
	cfg.CheckpointInterval = 50 * time.Millisecond
	db, err := checkin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Load()
	return db
}

// runProc runs fn as a simulated process on db's kernel to completion.
func runProc(db *checkin.DB, fn func(p *sim.Proc)) {
	e := db.Sim()
	e.Go("test", fn)
	if err := e.RunToIdle(); err != nil {
		panic(err)
	}
}

// TestScanClampsAtKeySpaceEnd: a scan past the last key reads only the
// records that exist, a start past the end reads the last record, and an
// empty scan reads one record. Right after Load every record sits in the
// data area (journal) or the base run (LSM), so the device sees exactly
// one contiguous read of the clamped range.
func TestScanClampsAtKeySpaceEnd(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			db := hostTestDB(t, engine)
			keys := db.Config().Keys
			for _, c := range []struct {
				key     int64
				n       uint16
				records uint64
			}{
				{keys - 3, 50, 3},
				{keys + 10, 10, 1},
				{0, 0, 1},
			} {
				before := db.Device().Stats().HostReadBytes
				runProc(db, func(p *sim.Proc) {
					core.Apply(db.Host(), p, workload.Op{Kind: workload.OpScan, Key: c.key, ScanLen: c.n})
				})
				if got, want := db.Device().Stats().HostReadBytes-before, 512*c.records; got != want {
					t.Errorf("Scan(%d, %d) read %d bytes, want %d", c.key, c.n, got, want)
				}
			}
		})
	}
}

// TestDeleteJournalsTombstone: a delete logs a 16-byte tombstone through
// the write-ahead log as the key's next version, and the tombstone
// checkpoints (journal) or flushes (LSM) and recovers like any update.
func TestDeleteJournalsTombstone(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			db := hostTestDB(t, engine)
			h := db.Host()
			payload := db.JournalStats().PayloadBytes
			runProc(db, func(p *sim.Proc) { core.Apply(h, p, workload.Op{Kind: workload.OpDelete, Key: 42}) })
			if got := db.JournalStats().PayloadBytes - payload; got != 16 {
				t.Errorf("tombstone logged %d payload bytes, want 16", got)
			}
			rep := h.Recovery()
			if rep.InMemory[42] != 2 || rep.Durable[42] != 2 {
				t.Errorf("tombstone version in-memory/durable = %d/%d, want 2/2", rep.InMemory[42], rep.Durable[42])
			}
			runProc(db, func(p *sim.Proc) { p.Wait(h.TriggerCheckpoint()) })
			if rep := db.SimulateRecovery(); rep.Recovered[42] != 2 || rep.Diverged() != 0 {
				t.Errorf("after a checkpoint: tombstone recovered v%d, %d keys diverged", rep.Recovered[42], rep.Diverged())
			}
		})
	}
}

// TestReadOnlyDeviceRejectsWritesServesReads: when the NAND spare pool runs
// out mid-run the device latches read-only. From then on both engines
// refuse every write — counted in Metrics.RejectedWrites, nothing logged,
// no version bumped — and keep serving reads from the device.
func TestReadOnlyDeviceRejectsWritesServesReads(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			cfg := checkin.DefaultConfig()
			cfg.Engine = engine
			cfg.BlocksPerPlane = 16
			cfg.Keys = 5000
			cfg.JournalHalfMB = 4
			cfg.EraseFailRate = 0.05
			cfg.ProgramFailRate = 0.005
			cfg.SpareBlocksPerDie = 1
			db, err := checkin.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			db.Load()
			if db.Health().ReadOnly {
				t.Fatal("device latched read-only during Load: the test lost its mid-run premise")
			}
			spec := checkin.RunSpec{Threads: 8, TotalQueries: 10_000, Mix: checkin.WorkloadA}
			m, err := db.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !db.Health().ReadOnly {
				t.Fatalf("device never latched read-only (health %+v)", db.Health())
			}
			if m.RejectedWrites == 0 || m.RejectedWrites >= m.WriteQueries {
				t.Fatalf("rejected %d of %d writes, want the latch to fall mid-run", m.RejectedWrites, m.WriteQueries)
			}

			memory := db.Host().Recovery().InMemory
			logs := db.JournalStats().Logs
			reads := db.Device().Stats().HostReadBytes
			m, err = db.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if m.WriteQueries == 0 || m.RejectedWrites != m.WriteQueries {
				t.Errorf("read-only run rejected %d of %d writes, want all", m.RejectedWrites, m.WriteQueries)
			}
			if got := db.JournalStats().Logs; got != logs {
				t.Errorf("read-only run logged %d records", got-logs)
			}
			if !slices.Equal(db.Host().Recovery().InMemory, memory) {
				t.Error("read-only run bumped in-memory versions")
			}
			if m.ReadQueries == 0 || db.Device().Stats().HostReadBytes == reads {
				t.Errorf("read-only run served %d reads with %d device read bytes", m.ReadQueries, db.Device().Stats().HostReadBytes-reads)
			}
		})
	}
}

// TestLSMCompactionSurvivesFragmentedRunArea runs uniform YCSB-A on the
// LSM engine over the 160 MB-raw device with 8 MB WAL halves. Within the
// first 225k ops, flush and compaction runs fragment the run area until
// no free extent holds a compaction's output, though the free space as a
// whole does: the compaction splits its output into runs over disjoint key
// ranges instead of running out. Recovery still reproduces every durable
// version from the split runs.
func TestLSMCompactionSurvivesFragmentedRunArea(t *testing.T) {
	cfg := checkin.DefaultConfig()
	cfg.Engine = "lsm"
	cfg.BlocksPerPlane = 40
	cfg.JournalHalfMB = 8
	db, err := checkin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(); err != nil {
		t.Fatal(err)
	}
	en := db.Host().(*lsm.Engine)
	const chunk = 25_000
	for i := range 10 {
		tr, err := checkin.RecordWorkload(cfg.Keys, cfg.Records, checkin.WorkloadA, false, chunk, int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Run(checkin.RunSpec{Threads: 64, TotalQueries: chunk, Trace: tr}); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	// every run comes from Load, a flush or a compaction, unless a
	// compaction split its output
	st := en.Stats()
	if st.RunsCreated <= 1+st.Flushes+st.Compactions {
		t.Fatalf("no compaction split its output (%+v): the run area never fragmented", st)
	}
	rep := db.SimulateRecovery()
	if !slices.Equal(rep.Recovered, rep.Durable) {
		t.Fatal("recovery over split runs does not reproduce the durable versions")
	}
}
