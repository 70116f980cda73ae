package harness

import (
	checkin "github.com/checkin-kv/checkin"
)

// recoveryCells measures crash-recovery behaviour per configuration
// (Section III-G): how much journal a crash leaves to replay, how long the
// engine recovery scan takes, and the device's own sudden-power-off
// recovery (OOB mapping-table rebuild) time — which must reconstruct the
// mapping with zero mismatches.
func recoveryCells(o Opts) ([]Cell, error) {
	return strategyCells("recovery/%v", checkin.Strategies,
		func(s checkin.Strategy) checkin.Config { return baseConfig(o, s) },
		spec(o, 40_000, checkin.WorkloadWO, true)), nil
}

func renderRecovery(_ Opts, cells []Cell) (*Table, error) {
	t := &Table{ID: "recovery", Title: "Crash recovery and device SPOR",
		Columns: []string{"strategy", "logs replayed", "journal KB read", "engine recovery", "SPOR scan", "SPOR mismatches"}}
	// recovery/SPOR simulation mutates each cell's private DB, so it runs
	// here in cell order — the note ordering is part of the byte-identical
	// output contract
	for _, c := range cells {
		s := c.Config.Strategy
		rep := c.DB.SimulateRecovery()
		// validate before reporting: recovery must equal the durable state
		if rep.Diverged() > 0 {
			t.Notes = append(t.Notes, s.String()+": RECOVERY MISMATCH (bug)")
		}
		spor := c.DB.SimulateSPOR()
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
