// Crash-recovery demonstration: runs update traffic, crashes the system at
// three interesting instants — mid-traffic, mid-checkpoint, and right after
// a checkpoint — and shows what a restarted instance reconstructs from the
// last checkpoint plus the committed journal (Section III-G of the paper).
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	checkin "github.com/checkin-kv/checkin"
)

func main() {
	if err := run(os.Stdout, 10_000, 1); err != nil {
		log.Fatal(err)
	}
}

// run executes the three crash scenarios; scaleDiv divides each scenario's
// query count so tests can run the same path in milliseconds.
func run(w io.Writer, keys, scaleDiv int64) error {
	scenarios := []struct {
		name     string
		interval time.Duration
		queries  int64
	}{
		{"crash shortly after load (journal only)", time.Hour, 5_000},
		{"crash with checkpoints flowing", 100 * time.Millisecond, 40_000},
		{"crash after heavy churn", 250 * time.Millisecond, 80_000},
	}

	for _, sc := range scenarios {
		cfg := checkin.DefaultConfig()
		cfg.Strategy = checkin.StrategyCheckIn
		cfg.Keys = keys
		cfg.CheckpointInterval = sc.interval

		db, err := checkin.Open(cfg)
		if err != nil {
			return err
		}
		db.Load()
		if _, err := db.Run(checkin.RunSpec{
			Threads:      16,
			TotalQueries: sc.queries / scaleDiv,
			Mix:          checkin.WorkloadWO,
			Zipfian:      true,
		}); err != nil {
			return err
		}

		// Pull the plug.
		rep := db.SimulateRecovery()
		mismatch := rep.Diverged()
		fmt.Fprintf(w, "%s:\n", sc.name)
		fmt.Fprintf(w, "  keys restored from checkpoint : %d\n", rep.FromCheckpoint)
		fmt.Fprintf(w, "  journal logs replayed         : %d (%d KB read)\n",
			rep.ReplayedLogs, rep.JournalBytesRead/1024)
		fmt.Fprintf(w, "  simulated recovery time       : %v\n", rep.RecoveryTime)
		if mismatch == 0 {
			fmt.Fprintf(w, "  result: every committed update recovered, none lost\n\n")
		} else {
			fmt.Fprintf(w, "  result: %d keys DIVERGED (bug!)\n\n", mismatch)
			return fmt.Errorf("recovery mismatch in scenario %q: %d keys diverged", sc.name, mismatch)
		}
	}

	fmt.Fprintln(w, "The device guarantees the checkpointed state via the flash mapping")
	fmt.Fprintln(w, "table (plus OOB records for its own recovery); the engine replays")
	fmt.Fprintln(w, "only the journal tail written after the last checkpoint.")
	return nil
}
