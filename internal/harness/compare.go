package harness

import (
	checkin "github.com/checkin-kv/checkin"
)

// compareCells replays one recorded operation stream — byte-identical
// inputs — against all five configurations, the strictest apples-to-apples
// comparison the system supports. The table summarizes the full cost
// picture per configuration: throughput, mean and tail latency, duplicate
// writes, flash programs, checkpoint time and flash energy.
func compareCells(o Opts) ([]Cell, error) {
	cfg0 := baseConfig(o, checkin.StrategyCheckIn)
	trace, err := recordWorkload(cfg0.Keys, cfg0.Records, checkin.WorkloadA,
		true, int(o.queries(60_000)), o.Seed)
	if err != nil {
		return nil, err
	}
	// all five cells share the recorded trace; replay only reads it, so the
	// share is race-free under parallel execution
	return strategyCells("compare/%v", checkin.Strategies,
		func(s checkin.Strategy) checkin.Config { return baseConfig(o, s) },
		checkin.RunSpec{Threads: o.maxThreads(), TotalQueries: int64(len(trace.Ops)), Trace: trace}), nil
}

func renderCompare(_ Opts, cells []Cell) (*Table, error) {
	t := &Table{ID: "compare", Title: "Trace-replay comparison (identical inputs, workload A, zipfian)",
		Columns: []string{"strategy", "kqps", "mean µs", "p99.9 ms", "redundant", "programs", "ckpt ms", "energy mJ"}}
	for _, c := range cells {
		m := c.Metrics
		t.AddRow(c.Config.Strategy.String(),
			f1(m.ThroughputQPS()/1e3),
			f1(float64(m.MeanLatency())/1e3),
			f1(float64(m.AllLat.Percentile(99.9))/1e6),
			d(m.RedundantWrites()),
			d(m.FlashPrograms()),
			f1(float64(m.MeanCheckpointTime())/1e6),
			f1(m.FlashEnergyMJ()))
	}
	t.Notes = append(t.Notes,
		"every configuration served the exact same operation stream (recorded trace replay)")
	return t, nil
}
