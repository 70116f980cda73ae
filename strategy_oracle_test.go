package checkin_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/ssd"
)

// oracleRun is what one strategy's replay leaves behind: the window's
// Metrics and the whole device's counters.
type oracleRun struct {
	m    checkin.Metrics
	dev  ssd.Stats
	ftl  ftl.Stats
	nand nand.Stats
}

// TestStrategiesDifferOnlyInCheckpoints replays one recorded trace under
// every strategy over engine {journal, lsm} x ftlmap {dram, dftl} x mapping
// unit {512, 4096}, with a checkpoint interval and a memtable so large that
// no checkpoint or flush lands in the window. Outside checkpoints the
// strategies then differ only in:
//
//   - the log format: Check-In logs in Algorithm 2's aligned format, the
//     rest conventionally;
//   - slot alignment: the journal engine aligns the record slots of the
//     remapping strategies (ISC-C, Check-In) to the mapping unit, the
//     others' to one host sector, so the two differ at units above 512 B.
//
// So Baseline, ISC-A and ISC-B must give identical Metrics and identical
// ssd, ftl and nand counters everywhere; ISC-C must match them wherever its
// slots align the same; and Check-In, forced onto the conventional format,
// must match ISC-C everywhere. The test fails the day a strategy-dependent
// path leaks outside the checkpoint.
func TestStrategiesDifferOnlyInCheckpoints(t *testing.T) {
	const keys, queries = 5_000, 10_000
	base := checkin.DefaultConfig()
	tr, err := checkin.RecordWorkload(keys, base.Records, checkin.WorkloadA, true, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(t *testing.T, cfg checkin.Config) oracleRun {
		t.Helper()
		db, err := checkin.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db.Load()
		m, err := db.Run(checkin.RunSpec{Threads: 16, TotalQueries: queries, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if n := m.Checkpoints(); n != 0 {
			t.Fatalf("%v: %d checkpoints in the window, want 0", cfg.Strategy, n)
		}
		dev := db.Device()
		return oracleRun{m: *m, dev: dev.Stats(), ftl: dev.FTL().Stats(), nand: dev.FTL().Array().Stats()}
	}
	differ := func(t *testing.T, what string, ra, rb oracleRun) {
		t.Helper()
		if reflect.DeepEqual(ra.m, rb.m) {
			t.Errorf("%s: Metrics are identical; the oracle cannot tell the paths apart", what)
		}
	}
	same := func(t *testing.T, a, b checkin.Strategy, ra, rb oracleRun) {
		t.Helper()
		if !reflect.DeepEqual(ra.m, rb.m) {
			t.Errorf("%v and %v Metrics differ: %.0f vs %.0f qps, flash amp %.3f vs %.3f",
				a, b, ra.m.ThroughputQPS(), rb.m.ThroughputQPS(), ra.m.FlashAmplification(), rb.m.FlashAmplification())
		}
		if ra.dev != rb.dev || !reflect.DeepEqual(ra.ftl, rb.ftl) || ra.nand != rb.nand {
			t.Errorf("%v and %v device counters differ:\n ssd  %+v\n vs   %+v\n ftl  %+v\n vs   %+v\n nand %+v\n vs   %+v",
				a, b, ra.dev, rb.dev, ra.ftl, rb.ftl, ra.nand, rb.nand)
		}
	}
	for _, engine := range []string{"journal", "lsm"} {
		for _, ftlmap := range []string{"dram", "dftl"} {
			for _, unit := range []int{512, 4096} {
				t.Run(fmt.Sprintf("%s/%s/%dB", engine, ftlmap, unit), func(t *testing.T) {
					cfg := base
					cfg.Keys = keys
					cfg.Engine = engine
					cfg.FTLMap = ftlmap
					cfg.MappingUnit = unit
					cfg.CheckpointInterval = 1000 * time.Second
					cfg.MemtableEntries = 1_000_000
					runs := map[checkin.Strategy]oracleRun{}
					for _, s := range checkin.Strategies {
						cfg.Strategy = s
						runs[s] = replay(t, cfg)
					}
					// the aligned format is the difference the override removes
					aligned := runs[checkin.StrategyCheckIn]
					runs[checkin.StrategyCheckIn] = func() oracleRun {
						defer checkin.ForceConventionalLogs()()
						return replay(t, cfg)
					}()
					differ(t, "Check-In in the aligned and the conventional format", aligned, runs[checkin.StrategyCheckIn])

					b, c := checkin.StrategyBaseline, checkin.StrategyISCC
					for _, s := range []checkin.Strategy{checkin.StrategyISCA, checkin.StrategyISCB} {
						same(t, b, s, runs[b], runs[s])
					}
					if engine == "journal" && unit > 512 {
						differ(t, "Baseline and ISC-C on unit-aligned slots", runs[b], runs[c])
					} else {
						same(t, b, c, runs[b], runs[c])
					}
					same(t, c, checkin.StrategyCheckIn, runs[c], runs[checkin.StrategyCheckIn])
				})
			}
		}
	}
}
