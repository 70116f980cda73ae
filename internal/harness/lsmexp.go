package harness

import (
	"path"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/lsm"
)

// lsmMemtableEntries bounds the memtable for the compaction experiment,
// scaled with the trace so a run crosses many flush epochs and the
// compaction ladder actually fires at every Opts.Scale — the point of the
// experiment is checkpoint cost under background merge traffic, not a
// memtable that swallows the whole workload.
func lsmMemtableEntries(traceOps int) int {
	n := traceOps / 16
	switch {
	case n < 128:
		return 128
	case n > 2048:
		return 2048
	}
	return n
}

// lsmPolicies are the compaction policies the experiment sweeps.
var lsmPolicies = []string{"leveled", "tiered"}

// compactionCells compares Check-In against the host-side checkpoint
// strategies when the storage engine is an LSM tree: every memtable flush
// is a checkpoint epoch (Baseline writes the run from the host; ISC-A/B
// copy WAL records device-side; ISC-C/Check-In remap WAL extents onto the
// run), and background compaction competes with queries for the same
// flash. One recorded write-only trace drives every cell — the journal
// engine rides along as the reference row — so the table isolates what the
// engine architecture and the checkpoint mechanism each cost under
// identical inputs.
func compactionCells(o Opts) ([]Cell, error) {
	cfg0 := baseConfig(o, checkin.StrategyCheckIn)
	trace, err := recordWorkload(cfg0.Keys, cfg0.Records, checkin.WorkloadWO,
		true, int(o.queries(40_000)), o.Seed)
	if err != nil {
		return nil, err
	}
	sp := checkin.RunSpec{Threads: o.maxThreads(), TotalQueries: int64(len(trace.Ops)), Trace: trace}
	cells := []Cell{{Name: "compaction/journal/Check-In", Config: cfg0, Spec: sp, Ckpt: true}}
	for _, policy := range lsmPolicies {
		cells = append(cells, strategyCells("compaction/lsm/"+policy+"/%v", checkin.Strategies,
			func(s checkin.Strategy) checkin.Config {
				cfg := baseConfig(o, s)
				cfg.Engine = "lsm"
				cfg.Compaction = policy
				cfg.MemtableEntries = lsmMemtableEntries(len(trace.Ops))
				return cfg
			}, sp)...)
	}
	return cells, nil
}

func renderCompaction(_ Opts, cells []Cell) (*Table, error) {
	t := &Table{ID: "compaction",
		Title: "Check-In vs host-side checkpointing under LSM compaction traffic (write-only, zipfian)",
		Columns: []string{"engine", "strategy", "kqps", "mean µs", "ckpt ms",
			"redundant", "programs", "flushes", "compactions", "merge MB"}}
	for _, c := range cells {
		m := c.Metrics
		flushes, compactions, mergeMB := "-", "-", "-"
		if le, ok := c.DB.Host().(*lsm.Engine); ok {
			st := le.Stats()
			flushes = d(st.Flushes)
			compactions = d(st.Compactions)
			mergeMB = f1(float64(st.CompactionRead+st.CompactionWrite) / (1 << 20))
		}
		// the engine label is the cell name's middle: journal or lsm/<policy>
		t.AddRow(path.Dir(c.Name[len("compaction/"):]), c.Config.Strategy.String(),
			f1(m.ThroughputQPS()/1e3),
			f1(float64(m.MeanLatency())/1e3),
			f1(float64(m.MeanCheckpointTime())/1e6),
			d(m.RedundantWrites()),
			d(m.FlashPrograms()),
			flushes, compactions, mergeMB)
	}
	t.Notes = append(t.Notes,
		"every cell served the exact same recorded operation stream; LSM rows flush each memtable epoch through the named strategy while compaction merges runs host-side",
		"'merge MB' counts host-link bytes moved by compaction (read + write); the journal row has no flush/merge machinery")
	return t, nil
}
