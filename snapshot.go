package checkin

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
)

// Snapshot is a complete, immutable copy of a DB's simulated state at the
// post-Load rest point: NAND array, FTL, controller, storage engine and the
// kernel clock. Fork stamps it into freshly opened DBs, skipping the load
// phase entirely — the snapshot-and-fork analogue of the checkpoint-restore
// methodology the paper uses to sidestep gem5/SimpleSSD warm-up.
//
// A Snapshot never aliases live state (every layer deep-copies on capture
// and again on restore), so one Snapshot can be forked concurrently from
// any number of goroutines.
type Snapshot struct {
	cfg    Config // resolved template configuration (diagnostics)
	loadFP uint64
	sim    sim.EngineState
	nand   *nand.ArrayState
	ftl    *ftl.FTLState
	dev    *ssd.DeviceState
	// host is the storage engine's state as captured by its backend
	// (core.EngineState or lsm.EngineState); RestoreState type-checks it,
	// and the load fingerprint pins the backend, so a journal snapshot can
	// never be stamped into an LSM fork.
	host any
}

// Snapshot captures the DB's full simulated state. It must be called after
// Load and before the first Run — the capture anchors to Load's rest point,
// where the event queue is empty and no simulated process is live. Tracing
// and fault injection thread live references through every layer, so DBs
// opened with TraceCapacity > 0 or an Injector cannot be snapshotted.
func (db *DB) Snapshot() (*Snapshot, error) {
	switch {
	case db.cfg.Injector != nil:
		return nil, fmt.Errorf("checkin: snapshot with a fault injector attached")
	case db.tracer != nil:
		return nil, fmt.Errorf("checkin: snapshot with tracing enabled")
	case db.restPoint == nil:
		return nil, fmt.Errorf("checkin: snapshot before Load")
	}
	if db.eng.Now() != db.restPoint.Now || db.eng.Executed() != db.restPoint.Executed {
		return nil, fmt.Errorf("checkin: snapshot after the simulation moved past Load's rest point")
	}
	if n := db.eng.LiveProcs(); n != 0 {
		return nil, fmt.Errorf("checkin: snapshot with %d live simulated processes", n)
	}
	lfp, ok := LoadFingerprint(db.cfg)
	if !ok {
		return nil, fmt.Errorf("checkin: configuration is not snapshottable")
	}
	s := &Snapshot{cfg: db.cfg, loadFP: lfp, sim: *db.restPoint}
	s.nand = db.device.FTL().Array().Snapshot()
	var err error
	if s.ftl, err = db.device.FTL().Snapshot(); err != nil {
		return nil, err
	}
	if s.dev, err = db.device.Snapshot(); err != nil {
		return nil, err
	}
	if s.host, err = db.host.SnapshotState(); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the resolved configuration the snapshot was captured from.
func (s *Snapshot) Config() Config { return s.cfg }

// LoadFingerprint returns the fingerprint identifying the load phases this
// snapshot can substitute for.
func (s *Snapshot) LoadFingerprint() uint64 { return s.loadFP }

// Fork opens a fresh DB under cfg and installs the snapshot's state in place
// of running the load phase. cfg must describe the same load phase as the
// snapshot's source (LoadFingerprint must match); run-phase fields — Seed,
// Strategy-independent checkpoint knobs and so on — are
// free to differ, which is what lets one preconditioned template serve a
// whole sweep. The returned DB is indistinguishable from one that executed
// Load itself: clock, event order and all layer state match exactly.
func (s *Snapshot) Fork(cfg Config) (*DB, error) {
	lfp, ok := LoadFingerprint(cfg)
	if !ok {
		return nil, fmt.Errorf("checkin: configuration is not snapshottable (injector or tracing enabled)")
	}
	if lfp != s.loadFP {
		return nil, fmt.Errorf("checkin: fork config load fingerprint %016x does not match snapshot %016x", lfp, s.loadFP)
	}
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	// Kernel first: clears the constructor's deallocator tick so layer
	// restores schedule onto the captured timeline. The device restore then
	// re-arms the tick, drawing the same sequence number the direct path's
	// re-arm drew after its post-Load drain.
	db.eng.Restore(s.sim)
	if err := db.device.FTL().Array().Restore(s.nand); err != nil {
		return nil, err
	}
	if err := db.device.FTL().Restore(s.ftl); err != nil {
		return nil, err
	}
	db.device.Restore(s.dev)
	if err := db.host.RestoreState(s.host); err != nil {
		return nil, err
	}
	rp := s.sim
	db.restPoint = &rp
	return db, nil
}

// LoadFingerprint hashes every configuration field that influences the load
// phase — geometry, flash timing, FTL shape and policy, controller sizing,
// key population and record sizes, and the strategy-derived slot alignment.
// Two configs with equal load fingerprints produce bit-identical post-Load
// state, so a snapshot captured under one can be forked under the other.
// Deliberately excluded: Seed (Load is deterministic and consults no RNG)
// and the run-phase knobs (checkpoint interval, journal soft fraction,
// compression, checkpoint locking) — exclusion
// is what lets one template serve strategy sweeps that only vary those.
// ok is false when the config cannot be snapshotted at all (fault injection
// or tracing threads live references through the stack).
func LoadFingerprint(cfg Config) (uint64, bool) {
	if cfg.Injector != nil || cfg.TraceCapacity > 0 {
		return 0, false
	}
	cfg = withDefaults(cfg)
	if cfg.GCPolicy == "" {
		cfg.GCPolicy = "greedy"
	}
	deferGC := cfg.Strategy == StrategyCheckIn
	if cfg.DeferGC != nil {
		deferGC = *cfg.DeferGC
	}
	h := NewTagHash("load")
	h.Tag("geo", "%d/%d/%d/%d/%d/%d",
		cfg.Channels, cfg.DiesPerChannel, cfg.PlanesPerDie, cfg.BlocksPerPlane,
		cfg.PagesPerBlock, cfg.PageSizeBytes)
	h.Tag("tim", "%d/%d/%d/%d",
		cfg.ReadLatency.Nanoseconds(), cfg.ProgramLatency.Nanoseconds(),
		cfg.EraseLatency.Nanoseconds(), cfg.ChannelMBps)
	h.Tag("pe", "%d", cfg.MaxPECycles)
	h.Tag("ftl", "%d/%v/%d/%s/%v/%d", cfg.MappingUnit, cfg.OverProvision,
		cfg.MapCacheMB, cfg.GCPolicy, deferGC, cfg.WearDeltaThreshold)
	// Appended only off the default so dram fingerprints stay stable across
	// the dftl introduction.
	h.TagIf(cfg.FTLMap != "dram", "ftlmap", "%s/%d", cfg.FTLMap, cfg.CMTEntries)
	h.TagIf(cfg.MetaFlushEntries != 0, "mf", "%d", cfg.MetaFlushEntries)
	h.Tag("dev", "%d/%d/%d/%d", cfg.QueueDepth, cfg.PCIeMBps, cfg.DataCacheMB,
		cfg.CommandTimeout.Nanoseconds())
	h.Tag("rel", "%v/%v/%v/%v/%v/%v/%d", cfg.ReadRetryRate, cfg.RetryEscalation,
		cfg.UncorrectableRate, cfg.ProgramFailRate, cfg.EraseFailRate,
		cfg.WearErrorFactor, cfg.SpareBlocksPerDie)
	// The fault stream is seeded from Seed, and Load's writes draw from it —
	// with the model enabled, Seed shapes post-Load state (unlike the
	// perfect-flash case, where Load consults no RNG).
	h.TagIf(cfg.errorModelEnabled(), "relseed", "%d", cfg.Seed)
	h.Tag("db", "%d/%d", cfg.Keys, cfg.JournalHalfMB)
	// The backend shapes post-Load state from the ground up (journal halves
	// + key table vs WAL + base run + manifest). Appended only off the
	// default so journal fingerprints stay stable across the lsm
	// introduction — and so the template cache can never serve a journal
	// snapshot to an LSM run or vice versa.
	h.TagIf(cfg.Engine != "journal", "engine", "%s", cfg.Engine)
	h.Tag("remap", "%v", cfg.Strategy.UsesRemap())
	h.Tag("sizer", "%016x", sizerFingerprint(cfg.Records, cfg.Keys))
	return h.Sum(), true
}

// Fingerprint hashes the complete resolved configuration: the load
// fingerprint plus every run-phase field. Two configs with equal
// fingerprints run identical simulations end to end, making this the key
// for memoizing whole runs. ok is false under the same conditions as
// LoadFingerprint.
func Fingerprint(cfg Config) (uint64, bool) {
	lfp, ok := LoadFingerprint(cfg)
	if !ok {
		return 0, false
	}
	cfg = withDefaults(cfg)
	h := NewTagHash("run")
	h.Tag("load", "%016x", lfp)
	h.Tag("strat", "%v", cfg.Strategy)
	h.Tag("seed", "%d", cfg.Seed)
	h.Tag("ival", "%d", cfg.CheckpointInterval.Nanoseconds())
	h.Tag("soft", "%v", cfg.JournalSoftFrac)
	h.Tag("comp", "%v", cfg.CompressRatio)
	h.Tag("lock", "%v", cfg.LockDuringCheckpoint)
	// LSM run-phase shape: the compaction policy and memtable bound steer
	// every flush and merge, but not the load phase (the base run's layout
	// is policy-independent), so they tag here rather than in
	// LoadFingerprint — one LSM template serves both policies.
	h.TagIf(cfg.Engine != "journal", "lsmrun", "%s/%d", cfg.Compaction, cfg.MemtableEntries)
	return h.Sum(), true
}

// sizerFingerprint identifies a record-size assignment by name plus a probe
// of every key's size — sizers are user-supplied, so the name alone is not
// trusted to pin the mapping.
func sizerFingerprint(s Sizer, keys int64) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s.Name())
	var buf [8]byte
	for k := int64(0); k < keys; k++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(s.SizeOf(k)))
		h.Write(buf[:])
	}
	return h.Sum64()
}
