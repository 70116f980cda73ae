package checkin

import (
	"fmt"
	"sort"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/lsm"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
)

// HostEngine is the storage-engine contract every backend implements: the
// journal+JMT engine of the paper (internal/core, name "journal") and the
// LSM-tree engine (internal/lsm, name "lsm"). The device below, the
// workload above, the checkpoint strategies, the crash-injection
// instrument and the verification oracles all speak to the engine through
// this interface, so backends are interchangeable per Config.Engine and
// directly comparable on identical inputs.
type HostEngine interface {
	// The ops, checkpoint control and introspection the workload drivers
	// use (core.Drive, the shard front end, the verification oracles).
	core.Host

	// Sync blocks until every write issued so far is durable.
	Sync(p *sim.Proc)

	// Load bulk-populates every record (the YCSB load phase).
	Load()
	// Run executes a measured workload phase.
	Run(spec core.RunSpec) (*core.Metrics, error)
	// Metrics exposes the last run's live collector.
	Metrics() *core.Metrics

	// SetCommitHook observes every (key, version) the instant it becomes
	// durable — the crash-consistency oracle's model feed.
	SetCommitHook(fn func(key, version int64))

	// Recovery reports, without advancing simulated time, what a crash
	// at this instant recovers next to the durable and in-memory version
	// truth, plus the device reads of the recovery scan.
	Recovery() *core.RecoveryReport

	// Snapshot-and-fork: the backend's mutable state as an opaque value.
	// RestoreState must reject a value captured from a different backend.
	SnapshotState() (any, error)
	RestoreState(s any) error
}

// Interface checks: both backends implement the full contract.
var (
	_ HostEngine = (*core.Engine)(nil)
	_ HostEngine = (*lsm.Engine)(nil)
)

// engineBuilder assembles one backend over an already-built device stack.
type engineBuilder func(eng *sim.Engine, device *ssd.Device, cfg Config, tracer *trace.Tracer) (HostEngine, error)

// engineBuilders is the backend registry, keyed by Config.Engine.
var engineBuilders = map[string]engineBuilder{
	"journal": buildJournalEngine,
	"lsm":     buildLSMEngine,
}

// EngineNames lists the registered backends in stable order.
func EngineNames() []string {
	names := make([]string, 0, len(engineBuilders))
	for n := range engineBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostConfig maps the settings both backends share.
func hostConfig(cfg Config, tracer *trace.Tracer) core.HostConfig {
	h := core.DefaultConfig().HostConfig
	h.Strategy = cfg.Strategy
	h.Keys = cfg.Keys
	h.Sizer = cfg.Records
	h.JournalHalfBytes = int64(cfg.JournalHalfMB) << 20
	h.CheckpointInterval = sim.VTime(cfg.CheckpointInterval.Nanoseconds())
	h.JournalSoftFrac = cfg.JournalSoftFrac
	h.LockDuringCheckpoint = cfg.LockDuringCheckpoint
	h.Tracer = tracer
	h.Injector = cfg.Injector
	h.Seed = cfg.Seed
	return h
}

func buildJournalEngine(eng *sim.Engine, device *ssd.Device, cfg Config, tracer *trace.Tracer) (HostEngine, error) {
	ecfg := core.DefaultConfig()
	ecfg.HostConfig = hostConfig(cfg, tracer)
	ecfg.CompressRatio = cfg.CompressRatio
	return core.NewEngine(eng, device, ecfg)
}

func buildLSMEngine(eng *sim.Engine, device *ssd.Device, cfg Config, tracer *trace.Tracer) (HostEngine, error) {
	lcfg := lsm.DefaultConfig()
	lcfg.HostConfig = hostConfig(cfg, tracer)
	lcfg.MemtableEntries = cfg.MemtableEntries
	lcfg.Policy = cfg.Compaction
	return lsm.New(eng, device, lcfg)
}

// newHostEngine resolves cfg.Engine against the registry.
func newHostEngine(eng *sim.Engine, device *ssd.Device, cfg Config, tracer *trace.Tracer) (HostEngine, error) {
	build, ok := engineBuilders[cfg.Engine]
	if !ok {
		return nil, fmt.Errorf("checkin: unknown Engine %q (registered: %v)", cfg.Engine, EngineNames())
	}
	return build(eng, device, cfg, tracer)
}
