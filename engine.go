package checkin

import (
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/lsm"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
)

// HostEngine is the storage-engine contract both engines implement: the
// journal+JMT engine of the paper (internal/core, name "journal") and the
// LSM-tree engine (internal/lsm, name "lsm"). See core.Host.
type HostEngine = core.Host

// EngineNames lists the host engines Config.Engine selects from.
func EngineNames() []string { return []string{"journal", "lsm"} }

// newHostEngine builds the engine cfg.Engine names over an already-built
// device stack from the resolved cfg; resolve has checked the name. With a
// template tmpl it clones tmpl instead (a fork), keeping cfg's run-phase
// settings; tmpl must be an engine of the same kind.
func newHostEngine(eng *sim.Engine, device *ssd.Device, cfg Config, tracer *trace.Tracer, tmpl HostEngine) (HostEngine, error) {
	h := core.HostConfig{
		Strategy:             cfg.Strategy,
		Keys:                 cfg.Keys,
		Sizer:                cfg.Records,
		JournalHalfBytes:     int64(cfg.JournalHalfMB) << 20,
		CheckpointInterval:   sim.VTime(cfg.CheckpointInterval.Nanoseconds()),
		JournalSoftFrac:      cfg.JournalSoftFrac,
		LockDuringCheckpoint: cfg.LockDuringCheckpoint,
		Tracer:               tracer,
		Injector:             cfg.Injector,
		Seed:                 cfg.Seed,
	}
	if cfg.Engine == "lsm" {
		lcfg := lsm.Config{HostConfig: h, MemtableEntries: cfg.MemtableEntries, Policy: cfg.Compaction}
		if tmpl != nil {
			return lsm.Fork(eng, device, lcfg, tmpl)
		}
		return lsm.New(eng, device, lcfg)
	}
	jcfg := core.Config{HostConfig: h, CompressRatio: cfg.CompressRatio}
	if tmpl != nil {
		return core.ForkEngine(eng, device, jcfg, tmpl)
	}
	return core.NewEngine(eng, device, jcfg)
}
