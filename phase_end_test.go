package checkin_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/sim"
)

// phaseConfig is a small store whose checkpoint epochs (ISC-A copies every
// live record) often outlast the last client: on both engines one of two
// chained 6000-query runs ends at an epoch's exit.
func phaseConfig(engine string) checkin.Config {
	cfg := checkin.DefaultConfig()
	cfg.Strategy = checkin.StrategyISCA
	cfg.Engine = engine
	cfg.Keys = 5000
	cfg.Records = checkin.FixedRecords(512)
	cfg.JournalHalfMB = 4
	cfg.CheckpointInterval = 10 * time.Millisecond
	cfg.MemtableEntries = 400
	return cfg
}

func openPhaseDB(t *testing.T, engine string) *checkin.DB {
	t.Helper()
	db, err := checkin.Open(phaseConfig(engine))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// liveness is what the kernel and the closed-loop driver hold at an instant.
type liveness struct{ procs, parked int }

func livenessOf(db *checkin.DB) liveness {
	return liveness{db.Sim().LiveProcs(), db.Host().Parked()}
}

// probeAt schedules a record of db's liveness at instant at. The probe
// draws a sequence number but changes no other event's instant or order.
func probeAt(db *checkin.DB, at sim.VTime) *liveness {
	l := new(liveness)
	db.Sim().At(at, func() { *l = livenessOf(db) })
	return l
}

// TestPhaseEndsAtLastEvent checks the kernel's idle stop rule
// (Engine.StopWhenIdle) on both engines. Each phase is run on one store,
// ending at some instant T, and then on an identical replica with a probe
// at T-1: the replica's phase must end at T as well, with nothing live or
// parked at T and something still live or parked at T-1. So T is the
// phase's own last event, not a polling boundary.
func TestPhaseEndsAtLastEvent(t *testing.T) {
	spec := checkin.RunSpec{Threads: 16, TotalQueries: 6000, Mix: checkin.WorkloadA, Zipfian: true}
	for _, engine := range engines {
		t.Run(engine+"/load", func(t *testing.T) {
			// The load process's last event ends the load, while the
			// deallocator keeps ticking beside it.
			var ends [2]sim.VTime
			var before *liveness
			for i := range ends {
				db := openPhaseDB(t, engine)
				if i == 1 {
					before = probeAt(db, ends[0]-1)
				}
				if err := db.Host().Load(); err != nil {
					t.Fatal(err)
				}
				ends[i] = db.Sim().Now()
				if l := livenessOf(db); l != (liveness{}) {
					t.Fatalf("after Load: %+v live", l)
				}
			}
			if ends[1] != ends[0] {
				t.Fatalf("probed replica's load ended at %v, want %v", ends[1], ends[0])
			}
			if before.procs != 1 {
				t.Errorf("1 ns before the load's end %d processes were live, want the load", before.procs)
			}
		})

		t.Run(engine+"/chained-runs", func(t *testing.T) {
			// Two chained runs: each ends at the later of its last
			// client's finish and its last epoch's exit, so the second
			// opens its window at the first one's last event, with no
			// idle gap between them.
			var ends [2][2]sim.VTime
			var clientEnds [2]sim.VTime
			var before [2]*liveness
			for i := range ends {
				db := openPhaseDB(t, engine)
				if err := db.Load(); err != nil {
					t.Fatal(err)
				}
				for r := range ends[i] {
					if i == 1 {
						before[r] = probeAt(db, ends[0][r]-1)
					}
					start := db.Sim().Now()
					m, err := db.Run(spec)
					if err != nil {
						t.Fatal(err)
					}
					ends[i][r] = db.Sim().Now()
					if l := livenessOf(db); l != (liveness{}) {
						t.Fatalf("after run %d: %+v live", r, l)
					}
					clientEnds[r] = start + m.Elapsed
				}
			}
			if ends[1] != ends[0] {
				t.Fatalf("probed replica's runs ended at %v, want %v", ends[1], ends[0])
			}
			epochEnds := 0
			for r, end := range ends[0] {
				b := *before[r]
				switch {
				case end < clientEnds[r]:
					t.Errorf("run %d ended at %v, before its last client finished at %v", r, end, clientEnds[r])
				case b == liveness{}:
					t.Errorf("run %d: nothing live 1 ns before its end at %v", r, end)
				case end > clientEnds[r] && (b.parked != 0 || b.procs == 0):
					t.Errorf("run %d ended at %v after its clients (%v) with %+v live 1 ns before, want only epochs",
						r, end, clientEnds[r], b)
				}
				if end > clientEnds[r] {
					epochEnds++
				}
				t.Logf("run %d: last client %v, end %v", r, clientEnds[r], end)
			}
			if epochEnds == 0 {
				t.Error("no run ended at an epoch's exit; the test no longer covers that case")
			}
		})

		t.Run(engine+"/blocked-process", func(t *testing.T) {
			// A process that never finishes: the deallocator stops
			// re-arming once nothing else is queued, so the queue runs
			// dry and the phase fails instead of spinning.
			db := openPhaseDB(t, engine)
			if err := db.Load(); err != nil {
				t.Fatal(err)
			}
			eng := db.Sim()
			eng.Go("blocked", func(p *sim.Proc) { p.Wait(sim.NewFuture(eng)) })
			_, err := db.Run(spec)
			if err == nil || !strings.Contains(err.Error(), "ran dry") {
				t.Fatalf("Run with a blocked process returned %v, want a ran-dry error", err)
			}
			if _, err := db.Run(spec); err == nil {
				t.Error("a store whose run failed accepted another run")
			}

			// A process parked for good after Fail (a full LSM run area
			// parks its flush so) must not keep the recovery scan going
			// while the deallocator ticks.
			db = openPhaseDB(t, engine)
			if err := db.Load(); err != nil {
				t.Fatal(err)
			}
			eng = db.Sim()
			errFail := errors.New("injected failure")
			eng.Go("failing", func(p *sim.Proc) {
				p.Sleep(5 * sim.Millisecond)
				db.Host().(interface{ Fail(error) }).Fail(errFail)
				p.Wait(sim.NewFuture(eng))
			})
			if _, err := db.Run(spec); !errors.Is(err, errFail) {
				t.Fatalf("Run returned %v, want %v", err, errFail)
			}
			start := eng.Now()
			if rep := db.SimulateRecovery(); eng.Now() != start+rep.RecoveryTime || eng.LiveProcs() != 1 {
				t.Errorf("recovery scan after a failed run ended at %v (start %v, scan %v) with %d processes live",
					eng.Now(), start, rep.RecoveryTime, eng.LiveProcs())
			}

			db = openPhaseDB(t, engine)
			eng = db.Sim()
			eng.Go("blocked", func(p *sim.Proc) { p.Wait(sim.NewFuture(eng)) })
			if err := db.Load(); err == nil || !strings.Contains(err.Error(), "ran dry") {
				t.Fatalf("Load with a blocked process returned %v, want a ran-dry error", err)
			}
		})
	}
}
