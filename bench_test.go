package checkin_test

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/harness"
)

// One benchmark per paper table/figure. Each iteration regenerates the
// artifact at a reduced scale (the full-size runs live in
// cmd/checkin-bench); run with -benchtime=1x for a single regeneration:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// The harness prints the same rows the paper reports; benchmarks only
// verify the generators run and time them.

// benchOpts keeps benchmark iterations affordable: small query counts and a
// short thread sweep.
func benchOpts() harness.Opts {
	return harness.Opts{Scale: 0.1, Threads: []int{4, 16}, Seed: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := harness.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, _, err := harness.Run(exp, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1Config(b *testing.B)             { runExperiment(b, "table1") }
func BenchmarkFig3aAmplification(b *testing.B)       { runExperiment(b, "fig3a") }
func BenchmarkFig3bCheckpointTime(b *testing.B)      { runExperiment(b, "fig3b") }
func BenchmarkFig3cLatencySpike(b *testing.B)        { runExperiment(b, "fig3c") }
func BenchmarkFig8aRedundantWrites(b *testing.B)     { runExperiment(b, "fig8a") }
func BenchmarkFig8bGC(b *testing.B)                  { runExperiment(b, "fig8b") }
func BenchmarkLifetime(b *testing.B)                 { runExperiment(b, "lifetime") }
func BenchmarkFig9TailLatency(b *testing.B)          { runExperiment(b, "fig9") }
func BenchmarkFig10CheckpointTime(b *testing.B)      { runExperiment(b, "fig10") }
func BenchmarkFig11aThroughput(b *testing.B)         { runExperiment(b, "fig11a") }
func BenchmarkFig11bLatency(b *testing.B)            { runExperiment(b, "fig11b") }
func BenchmarkFig12IntervalSensitivity(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13aMappingUnit(b *testing.B)        { runExperiment(b, "fig13a") }
func BenchmarkFig13bSpaceOverhead(b *testing.B)      { runExperiment(b, "fig13b") }
func BenchmarkAblations(b *testing.B)                { runExperiment(b, "ablation") }
func BenchmarkCompareReplay(b *testing.B)            { runExperiment(b, "compare") }
func BenchmarkRecovery(b *testing.B)                 { runExperiment(b, "recovery") }

// BenchmarkParallelSuite measures the worker-pool speedup end to end: the
// same multi-run experiments executed strictly sequentially and at NumCPU
// workers. fig9 (10 runs) and compare (5 runs sharing one trace) are the
// suite; both render byte-identically at either setting (see
// internal/harness TestParallelDeterminism). The recorded speedup snapshot
// lives in BENCH_runner.json.
func BenchmarkParallelSuite(b *testing.B) {
	suite := []string{"fig9", "compare"}
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"sequential", 1},
		{fmt.Sprintf("parallel-%d", runtime.NumCPU()), 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, id := range suite {
					exp, err := harness.Lookup(id)
					if err != nil {
						b.Fatal(err)
					}
					o := benchOpts()
					o.Parallelism = bc.par
					table, _, err := harness.Run(exp, o)
					if err != nil {
						b.Fatal(err)
					}
					if len(table.Rows) == 0 {
						b.Fatalf("%s produced no rows", id)
					}
				}
			}
		})
	}
}

// BenchmarkSnapshotFork measures one Snapshot.Fork: a stack cloned layer by
// layer from a loaded template. The stacks are TestForkCopiesEveryField's
// (journal over the dram and dftl maps, journal with heavy NAND faults,
// LSM) and the per-shard stack of the sharded benchmark workload (the
// default stack on 40 blocks per plane with 8 MB journal halves, 1,500
// keys per shard), whose open pays one fork per shard.
func BenchmarkSnapshotFork(b *testing.B) {
	stacks := copyTemplates(b)
	shard := checkin.DefaultConfig()
	shard.BlocksPerPlane = 40
	shard.JournalHalfMB = 8
	shard.Keys = 1500
	stacks["shard"] = shard
	for _, name := range slices.Sorted(maps.Keys(stacks)) {
		cfg := stacks[name]
		b.Run(name, func(b *testing.B) {
			snap := captureSnapshot(b, cfg)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := snap.Fork(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
