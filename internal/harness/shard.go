package harness

import (
	"cmp"
	"fmt"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/shard"
	"github.com/checkin-kv/checkin/internal/sim"
)

// renderShardSched is the multi-device scale-out experiment: every checkpointing
// strategy under every cross-shard checkpoint scheduling policy, driven by
// heavily-skewed multi-tenant open-loop traffic with per-tenant admission
// control. Rows are per (strategy, policy, tenant); the quantities to
// compare are the write tails (p99/p99.9) and SLO misses across policies —
// synchronized cuts stack every device's checkpoint traffic, staggering
// spreads it, and the globally consistent cut buys its frontier with a
// dequeue stall the tails pay for.
// It runs no cells: a cell is one stack's Config plus a closed-loop
// RunSpec, while this experiment drives N stacks under open-loop arrivals,
// so it calls shard.Open itself (each report row still carries its
// shard's core.Metrics).
func renderShardSched(o Opts, _ []Cell) (*Table, error) {
	shards := cmp.Or(o.Shards, shard.DefaultShards)
	tenants := cmp.Or(o.Tenants, shard.DefaultTenantCount)
	if tenants < 1 {
		return nil, fmt.Errorf("shardsched: Tenants %d must be >= 1", tenants)
	}
	spec := cmp.Or(o.Arrival, shard.DefaultArrival)
	arrival, err := shard.ParseArrival(spec)
	if err != nil {
		return nil, err
	}
	arrival.Tenants = shard.DefaultTenants(tenants, 2000)
	scheds := shard.Scheds()
	if o.CkSched != "" {
		scheds = []string{o.CkSched}
	}
	ops := o.queries(40_000)

	t := &Table{
		ID:    "shardsched",
		Title: "Cross-shard checkpoint scheduling under multi-tenant open-loop traffic",
		Columns: []string{"strategy", "cksched", "tenant", "offered", "shed", "done",
			"p50 µs", "p99 µs", "p99.9 µs", "slo ms", "miss %"},
	}
	us := func(v sim.VTime) string { return fmt.Sprintf("%.0f", float64(v)/1000) }
	for _, strat := range checkin.Strategies {
		for _, sched := range scheds {
			cfg := baseConfig(o, strat)
			// Open-loop traffic spans ops/rate of virtual time (~267ms at
			// full scale); a 20ms cadence lands a dozen cuts inside it.
			cfg.CheckpointInterval = 20 * time.Millisecond
			sc := shard.Config{
				Shards:   shards,
				Base:     cfg,
				Arrival:  arrival,
				TotalOps: ops,
				Sched:    sched,
				// Admit 95% of the offered rate with a shallow burst so the
				// shed column is live under the same pressure in every cell.
				AdmitRatePerSec: arrival.RatePerSec * 0.95,
				AdmitBurst:      50,
				Seed:            o.Seed,
			}
			s, err := shard.Open(sc)
			if err != nil {
				return nil, err
			}
			rep, err := s.Run()
			if err != nil {
				return nil, fmt.Errorf("%v/%s: %w", strat, sched, err)
			}
			if o.Timing {
				recordShardTimings(fmt.Sprintf("%v/%s", strat, sched), rep)
			}
			for _, tr := range rep.Tenants {
				t.AddRow(strat.String(), sched, tr.Name,
					d(tr.Offered), d(tr.Shed), d(tr.Done),
					us(tr.P50), us(tr.P99), us(tr.P999),
					fmt.Sprintf("%.0f", float64(tr.SLO)/float64(sim.Millisecond)),
					fmt.Sprintf("%.2f", tr.SLOMissPct))
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d shards x %d tenants, arrival %s, %d offered ops/cell, admission at 95%% of offered rate", shards, tenants, spec, ops),
		"open-loop latency includes queueing delay; compare write tails and miss% across cksched policies per strategy")
	return t, nil
}

// recordShardTimings feeds the -timing breakdown: one row for the shared
// template load and one per shard (fork wall vs in-window run wall — the
// imbalance view).
func recordShardTimings(cell string, rep *shard.Report) {
	cellTimings.mu.Lock()
	defer cellTimings.mu.Unlock()
	cellTimings.rows = append(cellTimings.rows, CellTiming{
		Cell: cell + "/tmpl", Load: rep.LoadWall,
	})
	for _, sr := range rep.ShardRows {
		cellTimings.rows = append(cellTimings.rows, CellTiming{
			Cell: fmt.Sprintf("%s/s%d", cell, sr.ID),
			Load: sr.LoadWall,
			Run:  sr.RunWall,
		})
	}
}
