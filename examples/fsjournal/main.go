// File-system generality demo: the paper argues Check-In's mechanism is not
// key-value specific — "our approach can be applied to other storage
// systems that use journaling and checkpointing (e.g., a file system)".
// This example runs the journal engine as a data-journaling block store
// (ext4 data=journal style): every record is one 4 KB file block on a 4 KB
// mapping unit, and the traffic is block overwrites only. The journal is
// checkpointed either through the host (Baseline: read the journal, write
// the home blocks back, as jbd does) or by the device's remap command
// (Check-In), and the flash-level cost is compared.
//
//	go run ./examples/fsjournal
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	checkin "github.com/checkin-kv/checkin"
)

// blockSize is the file block and the mapping unit.
const blockSize = 4096

func main() {
	if err := run(os.Stdout, 8_000); err != nil {
		log.Fatal(err)
	}
}

// result is what one strategy's run reports.
type result struct {
	strategy   checkin.Strategy
	m          *checkin.Metrics
	energyMJ   float64
	diverged   int   // blocks a restarted host would recover wrongly
	mismatches int64 // device mappings the SPOR rebuild got wrong
}

// measure loads a 4096-block store, runs writes uniform block overwrites
// from 16 threads, then crashes it at the host and at the device level.
func measure(s checkin.Strategy, writes int64) (result, error) {
	cfg := checkin.DefaultConfig()
	cfg.Strategy = s
	cfg.BlocksPerPlane = 64 // 256 MB raw device
	cfg.MappingUnit = blockSize
	cfg.Keys = 4096
	cfg.Records = checkin.FixedRecords(blockSize)
	cfg.JournalHalfMB = 4
	cfg.CheckpointInterval = 50 * time.Millisecond

	db, err := checkin.Open(cfg)
	if err != nil {
		return result{}, err
	}
	if err := db.Load(); err != nil {
		return result{}, err
	}
	m, err := db.Run(checkin.RunSpec{Threads: 16, TotalQueries: writes, Mix: checkin.WorkloadWO})
	if err != nil {
		return result{}, err
	}
	return result{
		strategy:   s,
		m:          m,
		energyMJ:   db.FlashEnergyMJ(),
		diverged:   db.SimulateRecovery().Diverged(),
		mismatches: db.SimulateSPOR().Mismatches,
	}, nil
}

// verdict is the generality claim as a predicate: remap checkpoints
// program nothing where host checkpoints do, take at most a quarter of
// their time, and both recover every block at the host and the device.
func verdict(base, ci result) error {
	var errs []error
	if ci.m.CheckpointPrograms() != 0 || base.m.CheckpointPrograms() == 0 {
		errs = append(errs, fmt.Errorf("checkpoint programs: Check-In %d (want 0), Baseline %d (want > 0)",
			ci.m.CheckpointPrograms(), base.m.CheckpointPrograms()))
	}
	if 4*ci.m.MeanCheckpointTime() > base.m.MeanCheckpointTime() {
		errs = append(errs, fmt.Errorf("mean checkpoint: Check-In %v is above a quarter of Baseline's %v",
			ci.m.MeanCheckpointTime(), base.m.MeanCheckpointTime()))
	}
	for _, r := range []result{base, ci} {
		if r.diverged != 0 || r.mismatches != 0 {
			errs = append(errs, fmt.Errorf("%v recovery: %d blocks diverged, %d SPOR mismatches",
				r.strategy, r.diverged, r.mismatches))
		}
	}
	return errors.Join(errs...)
}

// run measures both strategies, prints their flash cost and the verdict,
// and returns an error when the claim does not hold.
func run(w io.Writer, writes int64) error {
	fmt.Fprintf(w, "%-9s %8s %7s %12s %11s %10s %10s\n",
		"strategy", "writes", "ckpts", "ckpt mean", "ckpt progs", "redundant", "energy mJ")
	var rs []result
	for _, s := range []checkin.Strategy{checkin.StrategyBaseline, checkin.StrategyCheckIn} {
		r, err := measure(s, writes)
		if err != nil {
			return err
		}
		rs = append(rs, r)
		fmt.Fprintf(w, "%-9v %8d %7d %12v %11d %10d %10.1f\n",
			s, r.m.WriteQueries, r.m.Checkpoints(), r.m.MeanCheckpointTime(),
			r.m.CheckpointPrograms(), r.m.RedundantWrites(), r.energyMJ)
	}
	if err := verdict(rs[0], rs[1]); err != nil {
		fmt.Fprintf(w, "\nverdict: the generality claim does not hold:\n%v\n", err)
		return err
	}
	fmt.Fprintln(w, "\nverdict: the generality claim holds — with 4 KB blocks on a 4 KB")
	fmt.Fprintln(w, "mapping unit the remap checkpoint programs no flash, takes at most a")
	fmt.Fprintln(w, "quarter of the host checkpoint's time, and both recover every block.")
	return nil
}
