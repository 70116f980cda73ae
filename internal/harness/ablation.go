package harness

import (
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/runner"
)

// Ablation exercises the design decisions DESIGN.md calls out, one variant
// per row, against the same write-heavy workload:
//
//   - remap vs copy vs host copy (the strategy ladder),
//   - sector alignment on/off at fixed remapping (Check-In vs ISC-C),
//   - the deallocator's deferred GC on/off for Check-In,
//   - device data cache on/off (checkpoint reads from DRAM vs flash),
//   - multi-CoW batch size for ISC-B.
func Ablation(o Opts) (*Table, error) {
	o = o.withDefaults()
	t := &Table{ID: "ablation", Title: "Design-decision ablations (workload A, zipfian)",
		Columns: []string{"variant", "kqps", "p99.9 (ms)", "redundant", "ckpt (ms)"}}

	type variant struct {
		name string
		mut  func(*checkin.Config)
	}
	no := false
	variants := []variant{
		{"Baseline (host copy)", func(c *checkin.Config) { c.Strategy = checkin.StrategyBaseline }},
		{"ISC-B (device copy)", func(c *checkin.Config) { c.Strategy = checkin.StrategyISCB }},
		{"ISC-C (remap, unaligned)", func(c *checkin.Config) { c.Strategy = checkin.StrategyISCC }},
		{"Check-In (remap, aligned)", func(c *checkin.Config) { c.Strategy = checkin.StrategyCheckIn }},
		{"Check-In, DeferGC off", func(c *checkin.Config) {
			c.Strategy = checkin.StrategyCheckIn
			c.DeferGC = &no
		}},
		{"Check-In, no data cache", func(c *checkin.Config) {
			c.Strategy = checkin.StrategyCheckIn
			c.DataCacheMB = 1 // the smallest cache Config accepts ≈ "off"
		}},
		{"Baseline, no data cache", func(c *checkin.Config) {
			c.Strategy = checkin.StrategyBaseline
			c.DataCacheMB = 1
		}},
		{"Check-In, GC cost-benefit", func(c *checkin.Config) {
			c.Strategy = checkin.StrategyCheckIn
			c.GCPolicy = "cost-benefit"
		}},
		{"Check-In, GC fifo", func(c *checkin.Config) {
			c.Strategy = checkin.StrategyCheckIn
			c.GCPolicy = "fifo"
		}},
	}

	jobs := make([]runner.Job, 0, len(variants))
	for _, v := range variants {
		// run on the small device so GC-sensitive levers (DeferGC) bite
		cfg := smallDevice(baseConfig(o, checkin.StrategyCheckIn))
		cfg.CheckpointInterval = 300 * time.Millisecond
		v.mut(&cfg)
		jobs = append(jobs, runner.Job{
			Name:   "ablation/" + v.name,
			Config: cfg,
			Spec: checkin.RunSpec{
				Threads:      o.maxThreads(),
				TotalQueries: o.queries(60_000),
				Mix:          checkin.WorkloadA,
				Zipfian:      true,
			},
		})
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		m := rs[i].Metrics
		t.AddRow(v.name,
			f1(m.ThroughputQPS()/1e3),
			f1(float64(m.AllLat.Percentile(99.9))/1e6),
			d(m.RedundantWrites()),
			f1(float64(m.MeanCheckpointTime())/1e6))
	}
	t.Notes = append(t.Notes,
		"each row isolates one design lever; the aligned-remap row should dominate every column it targets")
	return t, nil
}
