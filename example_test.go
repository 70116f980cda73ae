package checkin_test

import (
	"fmt"
	"log"
	"time"

	checkin "github.com/checkin-kv/checkin"
)

// ExampleOpen shows the minimal open → load → run → report flow.
func ExampleOpen() {
	cfg := checkin.DefaultConfig()
	cfg.Strategy = checkin.StrategyCheckIn
	cfg.Keys = 1_000
	cfg.CheckpointInterval = 100 * time.Millisecond

	db, err := checkin.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	db.Load()

	m, err := db.Run(checkin.RunSpec{
		Threads:      4,
		TotalQueries: 2_000,
		Mix:          checkin.WorkloadA,
		Zipfian:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d queries with %d checkpoints\n", m.Queries, m.Checkpoints())
	// Output: completed 2000 queries with 2 checkpoints
}

// ExampleDB_SimulateRecovery validates crash consistency: every committed
// update must be reconstructible from the checkpoint plus the journal.
func ExampleDB_SimulateRecovery() {
	cfg := checkin.DefaultConfig()
	cfg.Keys = 1_000
	db, err := checkin.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	db.Load()
	if _, err := db.Run(checkin.RunSpec{
		Threads: 2, TotalQueries: 1_000, Mix: checkin.WorkloadWO, Zipfian: false,
	}); err != nil {
		log.Fatal(err)
	}

	rep := db.SimulateRecovery()
	lost := 0
	for k, v := range db.DurableVersions() {
		if rep.Recovered[k] != v {
			lost++
		}
	}
	fmt.Printf("lost updates: %d\n", lost)
	// Output: lost updates: 0
}

// ExampleParseStrategy resolves configuration names from flags or files.
func ExampleParseStrategy() {
	s, err := checkin.ParseStrategy("ISC-C")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s.Offloaded(), s.UsesRemap(), s.SectorAligned())
	// Output: true true false
}

// ExampleConfig_sweep shows how experiments override single knobs.
func ExampleConfig_sweep() {
	for _, unit := range []int{512, 4096} {
		cfg := checkin.DefaultConfig()
		cfg.Strategy = checkin.StrategyCheckIn
		cfg.MappingUnit = unit
		cfg.Keys = 500
		db, err := checkin.Open(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("unit %d: logical capacity %d MB\n",
			unit, db.Device().LogicalBytes()>>20)
	}
	// Output:
	// unit 512: logical capacity 457 MB
	// unit 4096: logical capacity 457 MB
}
