package main

import (
	"fmt"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/shard"
)

// clients is the closed-loop client count: each simulated client issues its
// next query only after the previous one completes.
const clients = 64

// warmupChunk is the op count of one warm-up Run. The warm-up is split so
// that no two Runs replay the same stream; see inputs.
const warmupChunk = 250_000

// workload is one input set of the benchmark. Closed-loop workloads drive
// one engine+SSD stack with pre-generated YCSB traces; the open-loop
// workload drives the sharded front end, whose arrival stream the shard
// layer generates from the seed.
type workload struct {
	name string
	why  string
	// configure adjusts the closed-loop stack; nil marks the open-loop
	// workload.
	configure func(*checkin.Config)
	mix       checkin.Mix
	zipfian   bool
	// warmup and window are op counts at scale 1: the ops run before the
	// measured window, and the ops inside it.
	warmup, window int
}

// workloads is the benchmark's input set. Each one exercises a layer the
// others leave idle or cheap, so a change to that layer moves its own
// workload and the others predict no change (see README.md).
var workloads = []workload{
	{
		name:      "journal-a-zipf",
		why:       "Check-In remap checkpoints under YCSB-A zipf 0.99 on the journal engine: the paper's headline path through core, ssd and ftl, hot set fits the caches",
		configure: func(*checkin.Config) {},
		mix:       checkin.WorkloadA, zipfian: true,
		warmup: 400_000, window: 600_000,
	},
	{
		name: "journal-a-uniform-dftl",
		why:  "flash-resident mapping table with a 32768-entry CMT under uniform keys: the mapping working set exceeds the CMT, so translation misses and writebacks dominate",
		configure: func(c *checkin.Config) {
			c.FTLMap = "dftl"
			c.CMTEntries = 32768
		},
		mix:    checkin.WorkloadA,
		warmup: 300_000, window: 200_000,
	},
	{
		name:      "journal-wo-uniform-baseline",
		why:       "Baseline host-copy checkpoints under write-only uniform load: device-bound, GC-heavy, no remaps and no reads, the most simulator events per op",
		configure: func(c *checkin.Config) { c.Strategy = checkin.StrategyBaseline },
		mix:       checkin.WorkloadWO,
		warmup:    150_000, window: 250_000,
	},
	{
		name:      "lsm-a-zipf",
		why:       "the journal-a-zipf mix on the LSM engine with leveled compaction, so the host engine is the only difference",
		configure: func(c *checkin.Config) { c.Engine = "lsm" },
		mix:       checkin.WorkloadA, zipfian: true,
		warmup: 400_000, window: 500_000,
	},
	{
		name:   "shard-open-poisson",
		why:    "open-loop Poisson arrivals at 200k/s over 4 shards x 32 workers and 3 tenants with staggered cuts: the only workload that runs shard domains on parallel goroutines",
		window: 300_000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) openLoop() bool { return w.configure == nil }

// stackConfig is the stack every workload starts from: the default
// configuration on a 160 MB-raw device (40 instead of 128 blocks per plane)
// with 8 MB journal halves. The smaller device reaches garbage-collection
// steady state after a few hundred thousand ops instead of millions, which
// is what lets every run repeat its set-up several times.
func stackConfig(seed int64) checkin.Config {
	cfg := checkin.DefaultConfig()
	cfg.BlocksPerPlane = 40
	cfg.JournalHalfMB = 8
	cfg.Seed = seed
	return cfg
}

func (w *workload) config(seed int64) checkin.Config {
	cfg := stackConfig(seed)
	w.configure(&cfg)
	return cfg
}

// shardConfig is the open-loop workload's sharded system offering ops
// arrivals.
func shardConfig(seed int64, ops int) (shard.Config, error) {
	arrival, err := shard.ParseArrival("poisson:200000")
	if err != nil {
		return shard.Config{}, err
	}
	arrival.Tenants = shard.DefaultTenants(3, 2000)
	return shard.Config{
		Shards:   4,
		Workers:  32,
		Base:     stackConfig(seed),
		Arrival:  arrival,
		TotalOps: int64(ops),
		Sched:    shard.SchedStaggered,
		Seed:     seed,
	}, nil
}

// scaled returns n*scale, at least 1.
func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

// traceSeeds returns the seed of each warm-up chunk and of the measured
// window. Every Run gets a stream of its own: core.Engine.Run derives its
// clients' generators from a seed that never advances, so back-to-back Runs
// fed by the built-in generator replay identical streams and measure a
// pathological state (see README.md).
func traceSeeds(seed int64, chunks int) (warm []int64, window int64) {
	for i := range chunks {
		warm = append(warm, 1000*seed+int64(i))
	}
	return warm, 1000*seed + 999
}

// inputs are a closed-loop workload's pre-generated op streams.
type inputs struct {
	warmup []*checkin.Trace
	window *checkin.Trace
	ops    int // total ops held, for the trace-buffer size
}

func (w *workload) inputs(cfg checkin.Config, seed int64, scale float64) (*inputs, error) {
	warmOps, chunk := scaled(w.warmup, scale), scaled(warmupChunk, scale)
	chunks := (warmOps + chunk - 1) / chunk
	if chunks >= 999 {
		return nil, fmt.Errorf("%s: %d warm-up chunks collide with the window seed", w.name, chunks)
	}
	warmSeeds, windowSeed := traceSeeds(seed, chunks)
	in := &inputs{}
	record := func(n int, seed int64) (*checkin.Trace, error) {
		in.ops += n
		return checkin.RecordWorkload(cfg.Keys, cfg.Records, w.mix, w.zipfian, n, seed)
	}
	for i, s := range warmSeeds {
		tr, err := record(min(chunk, warmOps-i*chunk), s)
		if err != nil {
			return nil, err
		}
		in.warmup = append(in.warmup, tr)
	}
	var err error
	in.window, err = record(scaled(w.window, scale), windowSeed)
	return in, err
}
