package harness

import (
	checkin "github.com/checkin-kv/checkin"
)

// ablationCells exercises the design decisions DESIGN.md calls out, one
// variant per row, against the same workload on the small device:
//
//   - remap vs copy vs host copy (the strategy ladder),
//   - sector alignment on/off at fixed remapping (Check-In vs ISC-C),
//   - device data cache on/off (checkpoint reads from DRAM vs flash),
//   - the FTL's GC victim policy for Check-In.
//
// The small device wraps the free-block pool within the run, so GC runs in
// the window; at today's windows no GC-policy decision changes a number,
// and TestNoVacuousCells lists those rows. Baseline and Check-In are the
// reference rows; every other row is a lever on one of them.
func ablationCells(o Opts) ([]Cell, error) {
	const base, ci = "Baseline (host copy)", "Check-In (remap, aligned)"
	variants := []struct {
		name, ref string
		mut       func(*checkin.Config)
	}{
		{base, "", func(c *checkin.Config) { c.Strategy = checkin.StrategyBaseline }},
		{"ISC-B (device copy)", base, func(c *checkin.Config) { c.Strategy = checkin.StrategyISCB }},
		{"ISC-C (remap, unaligned)", ci, func(c *checkin.Config) { c.Strategy = checkin.StrategyISCC }},
		{ci, "", func(c *checkin.Config) { c.Strategy = checkin.StrategyCheckIn }},
		{"Check-In, no data cache", ci, func(c *checkin.Config) {
			c.Strategy = checkin.StrategyCheckIn
			c.DataCacheMB = 1 // the smallest cache Config accepts ≈ "off"
		}},
		{"Baseline, no data cache", base, func(c *checkin.Config) {
			c.Strategy = checkin.StrategyBaseline
			c.DataCacheMB = 1
		}},
		{"Check-In, GC cost-benefit", ci, func(c *checkin.Config) {
			c.Strategy = checkin.StrategyCheckIn
			c.GCPolicy = "cost-benefit"
		}},
		{"Check-In, GC fifo", ci, func(c *checkin.Config) {
			c.Strategy = checkin.StrategyCheckIn
			c.GCPolicy = "fifo"
		}},
	}
	cells := make([]Cell, len(variants))
	for i, v := range variants {
		cfg := smallDevice(o)(checkin.StrategyCheckIn)
		v.mut(&cfg)
		cells[i] = Cell{Name: "ablation/" + v.name, Config: cfg,
			Spec: spec(o, 60_000, checkin.WorkloadA, true), Ckpt: true}
		if v.ref == "" {
			cells[i].leverOn("")
		} else {
			cells[i].leverOn("ablation/" + v.ref)
		}
	}
	return cells, nil
}

func renderAblation(_ Opts, cells []Cell) (*Table, error) {
	t := &Table{ID: "ablation", Title: "Design-decision ablations (workload A, zipfian)",
		Columns: []string{"variant", "kqps", "p99.9 (ms)", "redundant", "ckpt (ms)"}}
	for _, c := range cells {
		m := c.Metrics
		t.AddRow(c.Name[len("ablation/"):],
			f1(m.ThroughputQPS()/1e3),
			f1(float64(m.AllLat.Percentile(99.9))/1e6),
			d(m.RedundantWrites()),
			f1(float64(m.MeanCheckpointTime())/1e6))
	}
	t.Notes = append(t.Notes,
		"each row isolates one design lever; the aligned-remap row should dominate every column it targets")
	return t, nil
}
