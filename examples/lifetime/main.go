// Flash-lifetime study: drives an identical write-heavy workload through
// all five checkpointing configurations on a deliberately small device (so
// the free-block pool wraps several times) and reports the flash-level
// damage each design causes: programs, redundant writes, GC activity, and
// the projected block lifetime per the paper's Equation (1).
//
//	go run ./examples/lifetime [-queries 100000]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	checkin "github.com/checkin-kv/checkin"
)

func main() {
	queries := flag.Int64("queries", 100_000, "write queries per run")
	flag.Parse()

	if err := run(os.Stdout, *queries, 10_000); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, queries, keys int64) error {
	fmt.Fprintf(w, "%-9s %10s %10s %10s %10s %12s %9s\n",
		"strategy", "programs", "redundant", "gc", "reclaims", "rel.lifetime", "kqps")

	var baseLife float64
	for _, s := range checkin.Strategies {
		cfg := checkin.DefaultConfig()
		cfg.Strategy = s
		cfg.BlocksPerPlane = 16 // 64 MB raw device: GC becomes visible fast
		cfg.Keys = keys
		cfg.JournalHalfMB = 4
		cfg.CheckpointInterval = 300 * time.Millisecond

		db, err := checkin.Open(cfg)
		if err != nil {
			return err
		}
		db.Load()
		m, err := db.Run(checkin.RunSpec{
			Threads:      32,
			TotalQueries: queries,
			Mix:          checkin.WorkloadWO,
			Zipfian:      true,
		})
		if err != nil {
			return err
		}

		// Equation (1) over the run; equal work, so ratios compare.
		rc := db.Config()
		life := m.Lifetime(rc.MaxPECycles, rc.PagesPerBlock)
		if s == checkin.StrategyBaseline {
			baseLife = life
		}
		fmt.Fprintf(w, "%-9v %10d %10d %10d %10d %11.2fx %9.1f\n",
			s, m.FlashPrograms(), m.RedundantWrites(), m.GCCount(), m.Reclaims(),
			life/baseLife, m.ThroughputQPS()/1e3)
	}

	fmt.Fprintln(w, "\nEvery flash program eventually costs a P/E cycle. Check-In's remap")
	fmt.Fprintln(w, "checkpoint removes the duplicate writes, so the same query stream")
	fmt.Fprintln(w, "consumes a fraction of the erase budget (paper: ~3.9x the lifetime).")
	return nil
}
