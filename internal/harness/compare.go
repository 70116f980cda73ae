package harness

import (
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/runner"
)

// Compare replays one recorded operation stream — byte-identical inputs —
// against all five configurations, the strictest apples-to-apples
// comparison the system supports. It summarizes the full cost picture per
// configuration: throughput, mean and tail latency, duplicate writes,
// flash programs, checkpoint time and flash energy.
func Compare(o Opts) (*Table, error) {
	o = o.withDefaults()
	t := &Table{ID: "compare", Title: "Trace-replay comparison (identical inputs, workload A, zipfian)",
		Columns: []string{"strategy", "kqps", "mean µs", "p99.9 ms", "redundant", "programs", "ckpt ms", "energy mJ"}}

	cfg0 := baseConfig(o, checkin.StrategyCheckIn)
	trace, err := recordWorkload(cfg0.Keys, cfg0.Records, checkin.WorkloadA,
		true, int(o.queries(60_000)), o.Seed)
	if err != nil {
		return nil, err
	}

	// all five jobs share the recorded trace; replay only reads it, so the
	// share is race-free under parallel execution
	jobs := make([]runner.Job, 0, len(checkin.Strategies))
	for _, s := range checkin.Strategies {
		cfg := baseConfig(o, s)
		cfg.CheckpointInterval = 300 * time.Millisecond
		jobs = append(jobs, runner.Job{
			Name:   "compare/" + s.String(),
			Config: cfg,
			Spec: checkin.RunSpec{
				Threads:      o.maxThreads(),
				TotalQueries: int64(len(trace.Ops)),
				Trace:        trace,
			},
		})
	}
	rs, err := runJobsKeepDB(o, jobs)
	if err != nil {
		return nil, err
	}
	for i, s := range checkin.Strategies {
		db, m := rs[i].DB, rs[i].Metrics
		t.AddRow(s.String(),
			f1(m.ThroughputQPS()/1e3),
			f1(float64(m.MeanLatency())/1e3),
			f1(float64(m.AllLat.Percentile(99.9))/1e6),
			d(m.RedundantWrites()),
			d(m.FlashPrograms()),
			f1(float64(m.MeanCheckpointTime())/1e6),
			f1(m.FlashEnergyMJ(db.Device().FTL().Array().Timing())))
	}
	t.Notes = append(t.Notes,
		"every configuration served the exact same operation stream (recorded trace replay)")
	return t, nil
}
