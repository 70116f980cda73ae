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
// device stack; resolve has checked the name.
func newHostEngine(eng *sim.Engine, device *ssd.Device, cfg Config, tracer *trace.Tracer) (HostEngine, error) {
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
	if cfg.Engine == "lsm" {
		lcfg := lsm.DefaultConfig()
		lcfg.HostConfig = h
		lcfg.MemtableEntries = cfg.MemtableEntries
		lcfg.Policy = cfg.Compaction
		return lsm.New(eng, device, lcfg)
	}
	ecfg := core.DefaultConfig()
	ecfg.HostConfig = h
	ecfg.CompressRatio = cfg.CompressRatio
	return core.NewEngine(eng, device, ecfg)
}
