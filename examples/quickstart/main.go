// Quickstart: open a simulated Check-In key-value store system, load it,
// run a short YCSB-A burst, checkpoint, and verify crash recovery.
//
//	go run ./examples/quickstart
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
	if err := run(os.Stdout, 20_000, 16, 30_000); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, keys int64, threads int, queries int64) error {
	// The default configuration is a 512 MB simulated flash device running
	// the full Check-In stack: sector-aligned journaling plus in-storage
	// checkpointing by FTL remap.
	cfg := checkin.DefaultConfig()
	cfg.Strategy = checkin.StrategyCheckIn
	cfg.Keys = keys
	cfg.CheckpointInterval = 200 * time.Millisecond

	db, err := checkin.Open(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "loading records...")
	db.Load()

	fmt.Fprintf(w, "running %d YCSB-A queries on %d client threads...\n", queries, threads)
	m, err := db.Run(checkin.RunSpec{
		Threads:      threads,
		TotalQueries: queries,
		Mix:          checkin.WorkloadA,
		Zipfian:      true,
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprint(w, m.Summary())

	// Simulate pulling the plug right now: everything volatile is lost;
	// a restarted instance rebuilds from the last checkpoint plus the
	// committed journal logs.
	rep := db.SimulateRecovery()
	mismatches := rep.Diverged()
	fmt.Fprintf(w, "\ncrash recovery: %d logs replayed in %v, %d/%d keys match the durable state\n",
		rep.ReplayedLogs, rep.RecoveryTime, len(rep.Durable)-mismatches, len(rep.Durable))
	if mismatches > 0 {
		return fmt.Errorf("recovery diverged on %d keys", mismatches)
	}
	fmt.Fprintln(w, "recovery OK — no committed update was lost")
	return nil
}
