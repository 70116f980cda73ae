package harness

import (
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/runner"
)

// Recovery measures crash-recovery behaviour per configuration (Section
// III-G): how much journal a crash leaves to replay, how long the engine
// recovery scan takes, and the device's own sudden-power-off recovery
// (OOB mapping-table rebuild) time — which must reconstruct the mapping
// with zero mismatches.
func Recovery(o Opts) (*Table, error) {
	o = o.withDefaults()
	t := &Table{ID: "recovery", Title: "Crash recovery and device SPOR",
		Columns: []string{"strategy", "logs replayed", "journal KB read", "engine recovery", "SPOR scan", "SPOR mismatches"}}
	jobs := make([]runner.Job, 0, len(checkin.Strategies))
	for _, s := range checkin.Strategies {
		cfg := baseConfig(o, s)
		cfg.CheckpointInterval = 300 * time.Millisecond
		jobs = append(jobs, runner.Job{
			Name:   "recovery/" + s.String(),
			Config: cfg,
			Spec: checkin.RunSpec{
				Threads:      o.maxThreads(),
				TotalQueries: o.queries(40_000),
				Mix:          checkin.WorkloadWO,
				Zipfian:      true,
			},
		})
	}
	rs, err := runJobsKeepDB(o, jobs)
	if err != nil {
		return nil, err
	}
	// recovery/SPOR simulation mutates each run's private DB, so it stays in
	// the sequential assembly phase — the note ordering is part of the
	// byte-identical output contract
	for i, s := range checkin.Strategies {
		db := rs[i].DB
		rep := db.SimulateRecovery()
		// validate before reporting: recovery must equal the durable state
		if rep.Diverged() > 0 {
			t.Notes = append(t.Notes, s.String()+": RECOVERY MISMATCH (bug)")
		}
		spor := db.SimulateSPOR()
		t.AddRow(s.String(),
			d(uint64(rep.ReplayedLogs)),
			d(uint64(rep.JournalBytesRead/1024)),
			rep.RecoveryTime.String(),
			spor.Duration.String(),
			d(uint64(spor.Mismatches)))
	}
	t.Notes = append(t.Notes,
		"engine recovery replays only the journal tail after the last checkpoint; SPOR rebuilds the FTL map from OOB records")
	return t, nil
}
