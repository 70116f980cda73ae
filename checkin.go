// Package checkin is a simulation-backed reproduction of "Check-In:
// In-Storage Checkpointing for Key-Value Store System Leveraging
// Flash-Based SSDs" (ISCA 2020).
//
// It assembles a full simulated stack — NAND flash array, flash translation
// layer with sub-page mapping and copy-on-write remapping, an NVMe-like SSD
// controller hosting the in-storage checkpointing engine (ISCE), and the
// Check-In storage engine with sector-aligned journaling — and runs YCSB
// workloads against it under five checkpointing configurations (Baseline,
// ISC-A, ISC-B, ISC-C, Check-In).
//
// Typical use:
//
//	cfg := checkin.DefaultConfig()
//	cfg.Strategy = checkin.StrategyCheckIn
//	db, err := checkin.Open(cfg)
//	if err != nil { ... }
//	db.Load()
//	m, err := db.Run(checkin.RunSpec{Threads: 32, TotalQueries: 100_000,
//		Mix: checkin.WorkloadA, Zipfian: true})
//	fmt.Print(m.Summary())
//
// All time inside the simulation is virtual; runs are deterministic for a
// given Config (including Seed).
package checkin

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/lsm"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Strategy selects the checkpointing mechanism under test.
type Strategy = core.Strategy

// The five evaluated configurations (Section IV-A of the paper).
const (
	StrategyBaseline = core.StrategyBaseline
	StrategyISCA     = core.StrategyISCA
	StrategyISCB     = core.StrategyISCB
	StrategyISCC     = core.StrategyISCC
	StrategyCheckIn  = core.StrategyCheckIn
)

// Strategies lists every configuration in evaluation order.
var Strategies = core.Strategies

// ParseStrategy resolves a strategy from its display name (e.g. "ISC-C").
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }

// Workload types re-exported for callers.
type (
	// Mix is an operation mix in percent (reads/updates/RMWs).
	Mix = workload.Mix
	// Sizer assigns stable record sizes to keys.
	Sizer = workload.Sizer
	// RunSpec describes one measured workload phase.
	RunSpec = core.RunSpec
	// Metrics is the result of a run.
	Metrics = core.Metrics
	// RecoveryReport describes a simulated crash-recovery pass.
	RecoveryReport = core.RecoveryReport
	// Trace is a recorded operation stream for strict replay comparisons
	// (set RunSpec.Trace).
	Trace = workload.Trace
)

// The paper's workload mixes, plus the rest of the standard YCSB suite.
var (
	WorkloadA  = workload.WorkloadA  // 50% read / 50% update (paper)
	WorkloadF  = workload.WorkloadF  // 50% read / 50% RMW (paper)
	WorkloadWO = workload.WorkloadWO // write-only (paper)
	WorkloadB  = workload.WorkloadB  // 95% read / 5% update
	WorkloadC  = workload.WorkloadC  // read-only
	WorkloadD  = workload.WorkloadD  // 95% read / 5% update
	WorkloadE  = workload.WorkloadE  // 95% scans / 5% update
)

// Record-size helpers.
var (
	// PatternP1..P4 are the record-size mixes of Figure 13(b).
	PatternP1 = workload.PatternP1
	PatternP2 = workload.PatternP2
	PatternP3 = workload.PatternP3
	PatternP4 = workload.PatternP4
)

// FixedRecords returns a sizer giving every record the same size.
func FixedRecords(size int) Sizer { return workload.FixedSizer{Size: size} }

// MixedRecords returns a sizer drawing sizes from a weighted set.
func MixedRecords(label string, sizes, weights []int) Sizer {
	return workload.NewMixSizer(label, sizes, weights)
}

// RecordWorkload generates a reusable operation trace: replaying the same
// trace against different configurations (RunSpec.Trace) compares them on
// byte-identical inputs. Each op takes 16 bytes; an invalid mix, or a sizer
// giving any key a size outside [1, math.MaxInt32], is an error.
func RecordWorkload(keys int64, sizer Sizer, mix Mix, zipfian bool, n int, seed int64) (*Trace, error) {
	var dist workload.Distribution
	if zipfian {
		dist = workload.NewZipfian(keys, workload.DefaultTheta)
	} else {
		dist = workload.Uniform{Keys: keys}
	}
	gen, err := workload.NewGenerator(dist, sizer, mix, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return workload.RecordTrace(gen, n), nil
}

// Config is the full machine configuration — the reproduction of Table I.
// Open replaces zero fields by DefaultConfig's values (Strategy excepted:
// its zero is Baseline); start from DefaultConfig and override what an
// experiment sweeps.
type Config struct {
	Strategy Strategy
	Seed     int64

	// Engine selects the host storage engine: "journal" (default — the
	// paper's journaling engine with the in-memory key table) or "lsm"
	// (write-ahead log + memtable + sorted runs with compaction). Both
	// run over the same simulated device and the same checkpoint
	// strategies; see HostEngine.
	Engine string

	// Compaction selects the LSM compaction policy: "leveled" (default)
	// or "tiered". Ignored by the journal engine.
	Compaction string

	// MemtableEntries caps the LSM memtable's distinct-key count before a
	// flush epoch triggers. Ignored by the journal engine.
	MemtableEntries int

	// Flash geometry.
	Channels       int
	DiesPerChannel int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSizeBytes  int

	// Flash timing.
	ReadLatency    time.Duration
	ProgramLatency time.Duration
	EraseLatency   time.Duration
	ChannelMBps    int
	MaxPECycles    int

	// FTL.
	MappingUnit   int // 0 → the strategy's default (4096 conventional, 512 sub-page)
	OverProvision float64
	MapCacheMB    int
	// GCPolicy selects the garbage-collection victim policy:
	// "greedy" (default), "cost-benefit", or "fifo".
	GCPolicy string
	// FTLMap selects the mapping-table model: "dram" (default — full table
	// in controller DRAM with the probabilistic map-cache cost model),
	// "dftl" (DFTL-style flash-resident table: a bounded cached mapping
	// table backed by translation pages on flash, with mapping misses and
	// writebacks charged through the real NAND timing path; see
	// internal/ftl/dftl.go) or "dftl-basic" (the same table without the
	// controller's CMT optimizations: no page-fill on miss, strict LRU
	// eviction, no checkpoint-cut remap batch; DESIGN.md §16).
	FTLMap string
	// CMTEntries bounds the dftl cached mapping table (entries). 0 derives
	// the bound from MapCacheMB (8 bytes per entry); any bound is raised to
	// two translation pages' worth of entries (ftl.MinCMTEntries).
	CMTEntries int
	// MetaFlushEntries is the dirty-mapping-entry count that triggers a
	// metadata (dram mode) or translation-page (dftl mode) writeback. 0 is
	// one translation page's worth of entries (PageSizeBytes/8).
	MetaFlushEntries int

	// Controller.
	QueueDepth  int
	PCIeMBps    int
	DataCacheMB int

	// Engine (DBMS) settings.
	Keys                 int64
	Records              Sizer
	JournalHalfMB        int
	CheckpointInterval   time.Duration
	JournalSoftFrac      float64
	LockDuringCheckpoint bool

	// CompressRatio models Algorithm 2's compression of journal logs
	// larger than the mapping unit (1.0 = alignment only, no shrink).
	CompressRatio float64

	// TraceCapacity enables structured event tracing (checkpoints, journal
	// commits, GC victims, wear-level moves) with a bounded ring of this
	// many events. 0 disables tracing.
	TraceCapacity int

	// WearDeltaThreshold enables static wear leveling: a leveling move
	// triggers when the erase-count spread across blocks exceeds this
	// value. 0 disables leveling (the default).
	WearDeltaThreshold uint32

	// Injector, when set, threads a crash-injection instrument through
	// every layer of the stack (engine, controller, FTL). Used by the
	// crash-consistency verification harness (internal/check); nil in
	// production.
	Injector *inject.Injector

	// NAND reliability model (all rates zero — perfect flash — by default;
	// zero rates leave every code path byte-identical to a build without
	// the model). See nand.ReliabilityConfig and ErrorProfiles for named
	// presets.
	ReadRetryRate     float64 // P(page read needs ≥1 voltage-shift retry)
	RetryEscalation   float64 // geometric continuation per extra retry step
	UncorrectableRate float64 // P(read uncorrectable by the retry ladder)
	ProgramFailRate   float64 // P(page program fails)
	EraseFailRate     float64 // P(block erase fails → retirement)
	WearErrorFactor   float64 // rate growth per erase cycle (wear-out)

	// SpareBlocksPerDie reserves replacement blocks for grown bad blocks,
	// taken from each die's working blocks. 0 → 2 when the error model is
	// enabled; without it no block goes bad, so any value resolves to 0
	// (no spare pool). Open refuses a reserve that leaves the FTL too few
	// working blocks (ftl.Config.CheckSpareReserve).
	SpareBlocksPerDie int

	// CommandTimeout, when nonzero, charges a fixed 1 ms backoff on any
	// device command whose back-end service exceeds it (the host-visible
	// cost of a timeout/abort/retry exchange under error recovery).
	CommandTimeout time.Duration
}

// errorModelEnabled reports whether any NAND fault rate is nonzero.
func (c Config) errorModelEnabled() bool {
	return c.ReadRetryRate > 0 || c.UncorrectableRate > 0 ||
		c.ProgramFailRate > 0 || c.EraseFailRate > 0
}

// DefaultConfig returns the configuration used by the paper-reproduction
// experiments, scaled to simulator-friendly sizes: a 512 MB-raw flash
// device (4 channels × 2 dies × 2 planes × 128 blocks × 64 pages × 4 KB),
// 50 k records of small mixed sizes, 32 MB journal halves and a 1 s
// checkpoint interval (the paper's 60 s scaled to the shorter simulated
// runs).
func DefaultConfig() Config {
	return Config{
		Strategy:       StrategyCheckIn,
		Seed:           1,
		Channels:       4,
		DiesPerChannel: 2,
		PlanesPerDie:   2,
		BlocksPerPlane: 128,
		PagesPerBlock:  64,
		PageSizeBytes:  4096,
		ReadLatency:    50 * time.Microsecond,
		ProgramLatency: 500 * time.Microsecond,
		EraseLatency:   3 * time.Millisecond,
		ChannelMBps:    400,
		MaxPECycles:    3000,
		OverProvision:  0.12,
		MapCacheMB:     32,
		QueueDepth:     64,
		PCIeMBps:       3200,
		DataCacheMB:    8,
		Keys:           50_000,
		Records: workload.NewMixSizer("default-small",
			[]int{128, 256, 384, 512, 1024, 2048}, []int{2, 2, 1, 3, 1, 1}),
		JournalHalfMB:      32,
		CheckpointInterval: time.Second,
		JournalSoftFrac:    0.7,
		CompressRatio:      0.85,
		GCPolicy:           "greedy",
		FTLMap:             "dram",
		Engine:             "journal",
		Compaction:         lsm.PolicyLeveled,
		MemtableEntries:    4096,
	}
}

// DB is an open simulated key-value store system.
type DB struct {
	cfg    Config
	eng    *sim.Engine
	device *ssd.Device
	host   HostEngine
	tracer *trace.Tracer

	// restPoint is the kernel state at the post-Load quiescent instant —
	// the state forks start their kernel from. Nil before Load.
	restPoint *sim.EngineState
	// template is set by Snapshot: forks read the DB from then on, so
	// Load and Run refuse it.
	template bool
}

// resolve returns cfg as a DB runs it: every zero field replaced by its
// default, the values derived from other fields (mapping unit, CMT bound,
// flush threshold, spare pool) settled, and every value
// checked. It is the only place a Config default lives: Open builds each
// layer's config from the resolved fields plus the layer's own constants.
// Open, LoadFingerprint and Fingerprint all go through it, so a zero field
// and its explicit default fingerprint identically and an invalid
// configuration never fingerprints.
func resolve(cfg Config) (Config, error) {
	def := reflect.ValueOf(DefaultConfig())
	v := reflect.ValueOf(&cfg).Elem()
	for i := range v.NumField() {
		f, name := v.Field(i), v.Type().Field(i).Name
		// A negative duration would wrap around in virtual time; a negative
		// count would wrap through an unsigned field, hang the FTL's
		// metadata flush loop, or pass for unset. Any seed is valid.
		if f.CanInt() && f.Int() < 0 && name != "Seed" {
			return cfg, fmt.Errorf("checkin: %s must not be negative", name)
		}
		// A zero Strategy is Baseline, a choice rather than unset.
		if f.IsZero() && name != "Strategy" {
			f.Set(def.Field(i))
		}
	}
	if cfg.MappingUnit == 0 {
		cfg.MappingUnit = cfg.Strategy.DefaultMappingUnit()
	}
	if cfg.CMTEntries == 0 {
		cfg.CMTEntries = cfg.MapCacheMB << 20 / 8
	}
	cfg.CMTEntries = max(cfg.CMTEntries, ftl.MinCMTEntries(cfg.PageSizeBytes))
	if cfg.MetaFlushEntries == 0 {
		cfg.MetaFlushEntries = cfg.PageSizeBytes / 8
	}
	switch {
	case !cfg.errorModelEnabled():
		cfg.SpareBlocksPerDie = 0
	case cfg.SpareBlocksPerDie == 0:
		cfg.SpareBlocksPerDie = 2
	}
	// The FTL stores slot and logical-unit addresses in 32 bits: refuse a
	// device past that before any layer allocates a table for it.
	if err := ftl.CheckAddressable(cfg.geometry(), cfg.MappingUnit, cfg.OverProvision); err != nil {
		return cfg, fmt.Errorf("checkin: %w", err)
	}
	if _, ok := gcPolicies[cfg.GCPolicy]; !ok {
		return cfg, fmt.Errorf("checkin: unknown GCPolicy %q (want greedy, cost-benefit or fifo)", cfg.GCPolicy)
	}
	switch cfg.FTLMap {
	case "dram", "dftl", "dftl-basic":
	default:
		return cfg, fmt.Errorf("checkin: unknown FTLMap %q (want dram, dftl or dftl-basic)", cfg.FTLMap)
	}
	// Spare blocks come out of the working blocks: refuse a reserve that
	// leaves the FTL too few to run on.
	if err := cfg.ftlConfig().CheckSpareReserve(cfg.geometry()); err != nil {
		return cfg, fmt.Errorf("checkin: %w", err)
	}
	if !slices.Contains(EngineNames(), cfg.Engine) {
		return cfg, fmt.Errorf("checkin: unknown Engine %q (registered: %s)", cfg.Engine, strings.Join(EngineNames(), ", "))
	}
	if cfg.Compaction != lsm.PolicyLeveled && cfg.Compaction != lsm.PolicyTiered {
		return cfg, fmt.Errorf("checkin: unknown Compaction %q (want leveled or tiered)", cfg.Compaction)
	}
	return cfg, nil
}

// geometry is the flash array cfg describes: one package per channel.
func (c Config) geometry() nand.Geometry {
	return nand.Geometry{
		Channels:           c.Channels,
		PackagesPerChannel: 1,
		DiesPerPackage:     c.DiesPerChannel,
		PlanesPerDie:       c.PlanesPerDie,
		BlocksPerPlane:     c.BlocksPerPlane,
		PagesPerBlock:      c.PagesPerBlock,
		PageSize:           c.PageSizeBytes,
	}
}

// ftlConfig is the FTL configuration c runs with, its tracer aside.
func (c Config) ftlConfig() ftl.Config {
	f := ftl.DefaultConfig()
	f.UnitSize = c.MappingUnit
	f.OverProvision = c.OverProvision
	f.MapCacheBytes = int64(c.MapCacheMB) << 20
	f.Parallelism = min(c.geometry().TotalDies(), 8)
	f.GCPolicy = gcPolicies[c.GCPolicy]
	f.FlashMap = c.FTLMap != "dram"
	f.CMTEntries = c.CMTEntries
	f.CMTBasic = c.FTLMap == "dftl-basic"
	f.MetaFlushEntries = c.MetaFlushEntries
	f.Injector = c.Injector
	f.WearDeltaThreshold = c.WearDeltaThreshold
	f.SpareBlocksPerDie = c.SpareBlocksPerDie
	return f
}

// gcPolicies maps Config.GCPolicy names to the FTL's victim policies.
var gcPolicies = map[string]ftl.GCPolicy{
	"greedy":       ftl.GCGreedy,
	"cost-benefit": ftl.GCCostBenefit,
	"fifo":         ftl.GCFIFO,
}

// Open assembles the simulated stack described by cfg.
func Open(cfg Config) (*DB, error) {
	cfg, err := resolve(cfg)
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine()

	geo := cfg.geometry()
	tim := nand.Timing{
		ReadPage:    sim.VTime(cfg.ReadLatency.Nanoseconds()),
		ProgramPage: sim.VTime(cfg.ProgramLatency.Nanoseconds()),
		EraseBlock:  sim.VTime(cfg.EraseLatency.Nanoseconds()),
		CmdOverhead: sim.Microsecond,
		ChannelMBps: cfg.ChannelMBps,
	}.WithDefaultEnergy()
	array, err := nand.New(eng, geo, tim)
	if err != nil {
		return nil, fmt.Errorf("checkin: %w", err)
	}
	if cfg.errorModelEnabled() {
		rcfg := nand.ReliabilityConfig{
			ReadRetryRate:     cfg.ReadRetryRate,
			RetryEscalation:   cfg.RetryEscalation,
			UncorrectableRate: cfg.UncorrectableRate,
			ProgramFailRate:   cfg.ProgramFailRate,
			EraseFailRate:     cfg.EraseFailRate,
			WearFactor:        cfg.WearErrorFactor,
		}
		// A fixed odd mixing constant decorrelates the fault stream from
		// the workload RNGs derived from the same seed.
		relSeed := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x6e616e642d72656c
		if err := array.EnableReliability(rcfg, relSeed); err != nil {
			return nil, fmt.Errorf("checkin: %w", err)
		}
	}

	var tracer *trace.Tracer
	if cfg.TraceCapacity > 0 {
		tracer = trace.New(cfg.TraceCapacity)
	}
	fcfg := cfg.ftlConfig()
	fcfg.Tracer = tracer
	translation, err := ftl.New(eng, array, fcfg)
	if err != nil {
		return nil, fmt.Errorf("checkin: %w", err)
	}

	dcfg := ssd.DefaultConfig()
	dcfg.QueueDepth = cfg.QueueDepth
	dcfg.PCIeMBps = cfg.PCIeMBps
	dcfg.CacheBytes = int64(cfg.DataCacheMB) << 20
	dcfg.Injector = cfg.Injector
	dcfg.CommandTimeout = sim.VTime(cfg.CommandTimeout.Nanoseconds())
	device, err := ssd.New(eng, translation, dcfg)
	if err != nil {
		return nil, fmt.Errorf("checkin: %w", err)
	}

	host, err := newHostEngine(eng, device, cfg, tracer, nil)
	if err != nil {
		return nil, fmt.Errorf("checkin: %w", err)
	}

	return &DB{cfg: cfg, eng: eng, device: device, host: host, tracer: tracer}, nil
}

// Config returns the resolved configuration the DB runs with.
func (db *DB) Config() Config { return db.cfg }

// Load bulk-populates every record (the YCSB load phase). Call once before
// the first Run. On a snapshot template it returns an error and does
// nothing.
//
// After the bulk load, Load drains the simulation to a canonical rest point:
// the deallocator tick — the only perpetually self-rescheduling event — is
// paused so its queued firing disarms instead of re-arming, the event queue
// runs dry, and the kernel state is recorded before the tick is re-armed.
// Every path (direct run, snapshot template, fork) passes through the
// same rest point, which is what makes snapshot-on and snapshot-off runs
// byte-identical: re-arming is always the next scheduled action taken from
// identical (clock, sequence) state.
func (db *DB) Load() error {
	if db.template {
		return errTemplate
	}
	if err := db.host.Load(); err != nil {
		return err
	}
	db.device.PauseDeallocator()
	db.eng.Run()
	rp := db.eng.State()
	db.restPoint = &rp
	db.device.ResumeDeallocator()
	return nil
}

// Run executes a workload phase and returns its metrics.
func (db *DB) Run(spec RunSpec) (*Metrics, error) {
	if db.template {
		return nil, errTemplate
	}
	return db.host.Run(spec)
}

// SimulateRecovery models a crash at the current instant and returns what a
// restarted instance would reconstruct from the checkpoint and journal.
func (db *DB) SimulateRecovery() *RecoveryReport {
	rep := db.host.Recovery()
	core.TimeRecovery(db.eng, db.device, rep)
	return rep
}

// DurableVersions returns per-key durable versions (ground truth for
// recovery validation).
func (db *DB) DurableVersions() []int64 { return db.host.Recovery().Durable }

// Host exposes the storage engine behind the backend-agnostic interface.
func (db *DB) Host() HostEngine { return db.host }

// Device exposes the simulated SSD.
func (db *DB) Device() *ssd.Device { return db.device }

// Sim exposes the simulation kernel.
func (db *DB) Sim() *sim.Engine { return db.eng }

// FlashEnergyMJ returns cumulative flash energy in millijoules — the
// energy side of the paper's write-amplification motivation.
func (db *DB) FlashEnergyMJ() float64 {
	return float64(db.device.FTL().Array().EnergyNJ()) / 1e6
}

// Trace returns the structured event tracer, or nil when tracing is
// disabled (Config.TraceCapacity == 0).
func (db *DB) Trace() *trace.Tracer { return db.tracer }

// JournalStats returns journaling-layer counters (space overhead etc.);
// under the LSM backend these are the write-ahead log's counters.
func (db *DB) JournalStats() core.JournalStats { return db.host.JournalStats() }

// SimulateSPOR models a sudden power-off at the device level: the SSD
// rebuilds its mapping table purely from OOB records, remap aliases and
// trim extents (the paper's Section III-G), and the report compares the
// rebuilt table against the live one. Flush-backed state must match
// exactly; units still in the volatile write buffer are (correctly) lost.
func (db *DB) SimulateSPOR() *ftl.SPORReport {
	return db.device.SimulateSPOR()
}

// Health returns the device's reliability summary — grown bad blocks,
// spare blocks left, and whether it degraded to read-only mode. All zero
// unless the NAND error model is enabled.
func (db *DB) Health() ftl.Health { return db.device.Health() }
