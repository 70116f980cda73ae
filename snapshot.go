package checkin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"strconv"

	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/lsm"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
)

// Snapshot is a loaded template DB frozen at its post-Load rest point. Fork
// builds a new DB whose every layer — kernel, NAND array, FTL, controller,
// storage engine — is cloned straight from the template's, skipping the
// load phase entirely: the snapshot-and-fork analogue of the
// checkpoint-restore methodology the paper uses to sidestep gem5/SimpleSSD
// warm-up.
//
// A fork only reads the template, and the template refuses Load and Run,
// so one Snapshot can be forked concurrently from any number of
// goroutines.
type Snapshot struct {
	db *DB
	// load is the template's load phase and loadFP its fingerprint.
	load   loadPhase
	loadFP uint64
}

// errTemplate is what Load and Run return on a snapshotted DB.
var errTemplate = errors.New("checkin: the DB is a snapshot template; fork it instead")

// Snapshot freezes the DB as a fork template and copies nothing. It must
// be called after Load and before the first Run — the template anchors to
// Load's rest point, where the event queue is empty and no simulated
// process is live. From then on Load and Run on the DB return an error;
// read accessors (Config, Health, Device, Host, ...) keep working, but
// SimulateRecovery and SimulateSPOR, which advance the device's timeline,
// must not be called. Tracing and fault injection thread live references
// through every layer, so DBs opened with TraceCapacity > 0 or an Injector
// cannot be snapshotted. Each layer's own quiescence is checked when a
// fork clones it.
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
	if n := db.eng.LiveProcs() + db.host.Parked(); n != 0 {
		return nil, fmt.Errorf("checkin: snapshot with %d live simulated processes or parked clients", n)
	}
	load := loadPhaseOf(db.cfg) // resolved by Open
	lfp, ok := load.fingerprint()
	if !ok {
		return nil, fmt.Errorf("checkin: configuration is not snapshottable")
	}
	// Forks share the FTL's address-table chunks copy-on-write and the LSM
	// engine's runs; giving up the template's ownership here, before any
	// fork, leaves forks only reading the template.
	db.device.FTL().Share()
	if en, ok := db.host.(*lsm.Engine); ok {
		en.Share()
	}
	db.template = true
	return &Snapshot{db: db, load: load, loadFP: lfp}, nil
}

// Config returns the resolved configuration the snapshot was captured from.
func (s *Snapshot) Config() Config { return s.db.cfg }

// LoadFingerprint returns the fingerprint identifying the load phases this
// snapshot can substitute for.
func (s *Snapshot) LoadFingerprint() uint64 { return s.loadFP }

// Fork returns a DB under cfg whose every layer is cloned from the
// template's in place of running the load phase. cfg must describe the
// same load phase as the template (LoadFingerprint must match); run-phase
// fields — Seed, Strategy-independent checkpoint knobs and so on — are free
// to differ, which is what lets one preconditioned template serve a whole
// sweep. The returned DB is indistinguishable from one that executed Load
// itself: clock, event order and all layer state match exactly.
//
// A cfg whose load phase equals the template's value for value (a job's
// config after its template lookup hashed it, or a shard's) forks without
// hashing it again; any other is checked by its load fingerprint.
func (s *Snapshot) Fork(cfg Config) (*DB, error) {
	cfg, ok := fingerprintable(cfg)
	if !ok {
		return nil, fmt.Errorf("checkin: configuration is not snapshottable (injector or tracing enabled)")
	}
	if load := loadPhaseOf(cfg); !reflect.DeepEqual(load, s.load) {
		lfp, ok := load.fingerprint()
		if !ok {
			return nil, fmt.Errorf("checkin: configuration is not snapshottable")
		}
		if lfp != s.loadFP {
			return nil, fmt.Errorf("checkin: fork config load fingerprint %016x does not match snapshot %016x", lfp, s.loadFP)
		}
	}
	return s.db.clone(cfg, *s.db.restPoint)
}

// clone builds a DB under cfg, a resolved configuration with t's load
// phase, whose layers are clones of t's, each built once from its template
// layer: a kernel at state at with t's lanes registered, then the NAND
// array, the FTL, the controller (which arms its deallocator tick at at,
// drawing the sequence number the direct path's post-Load re-arm drew) and
// the host engine, which takes its run-phase settings from cfg. Each layer
// refuses a template that is not quiescent. t is only read.
func (t *DB) clone(cfg Config, at sim.EngineState) (*DB, error) {
	eng := t.eng.Fork(at)
	array := nand.Fork(eng, t.device.FTL().Array())
	translation, err := ftl.Fork(eng, array, t.device.FTL())
	if err != nil {
		return nil, err
	}
	device, err := ssd.Fork(eng, translation, t.device)
	if err != nil {
		return nil, err
	}
	host, err := newHostEngine(eng, device, cfg, nil, t.host)
	if err != nil {
		return nil, err
	}
	return &DB{cfg: cfg, eng: eng, device: device, host: host, restPoint: &at}, nil
}

// LoadFingerprint identifies the load phase cfg runs: Fingerprint's hash
// over the resolved configuration after clearRunPhase. Two configs with
// equal load fingerprints produce bit-identical post-Load state, so a
// snapshot captured under one can be forked under the other. Leaving the
// run-phase fields out is what lets one template serve strategy, seed and
// checkpoint-knob sweeps. ok is false under the same conditions as
// Fingerprint.
func LoadFingerprint(cfg Config) (uint64, bool) {
	cfg, ok := fingerprintable(cfg)
	if !ok {
		return 0, false
	}
	return loadPhaseOf(cfg).fingerprint()
}

// loadPhase is what of a resolved configuration shapes its load phase.
type loadPhase struct {
	cfg Config // with clearRunPhase applied
	// remap is set for remapping strategies, which align slots to the
	// sub-page unit and so shape the loaded layout; the rest of the
	// strategy only steers the run.
	remap bool
}

func loadPhaseOf(cfg Config) loadPhase {
	remap := cfg.Strategy.UsesRemap()
	clearRunPhase(&cfg)
	return loadPhase{cfg: cfg, remap: remap}
}

func (l loadPhase) fingerprint() (uint64, bool) {
	return HashValues("load", l.cfg.Keys, l.cfg, l.remap)
}

// clearRunPhase zeroes the fields that steer only the run phase. The load
// phase consults no RNG, so Seed goes too unless the NAND fault model is on:
// the fault stream is seeded from Seed and Load's writes draw from it. A
// field missing here costs template reuse, never correctness.
func clearRunPhase(cfg *Config) {
	if !cfg.errorModelEnabled() {
		cfg.Seed = 0
	}
	cfg.CheckpointInterval = 0
	cfg.JournalSoftFrac = 0
	cfg.CompressRatio = 0
	cfg.LockDuringCheckpoint = false
	// The LSM base run's layout is policy- and memtable-independent, so
	// one LSM template serves both compaction policies.
	cfg.Compaction = ""
	cfg.MemtableEntries = 0
	cfg.Strategy = 0
}

// Fingerprint hashes every field of the resolved configuration (see
// HashValues). Two configs with equal fingerprints run identical
// simulations end to end, making this the key for memoizing whole runs.
// ok is false when cfg is invalid, or cannot be snapshotted at all (fault
// injection or tracing threads live references through the stack).
func Fingerprint(cfg Config) (uint64, bool) {
	cfg, ok := fingerprintable(cfg)
	if !ok {
		return 0, false
	}
	return HashValues("run", cfg.Keys, cfg)
}

// fingerprintable resolves cfg; ok is false when it cannot be fingerprinted.
func fingerprintable(cfg Config) (Config, bool) {
	if cfg.Injector != nil || cfg.TraceCapacity > 0 {
		return cfg, false
	}
	cfg, err := resolve(cfg)
	return cfg, err == nil
}

// HashValues fingerprints vs under domain by value: every field of every
// struct, recursively, with pointers and interfaces followed rather than
// hashed by address. A Sizer is hashed by its name and a probe of its size
// for every key in [0, keys): sizers are user-supplied, so the name alone
// is not trusted to pin the mapping. ok is false when vs hold a value
// without a stable encoding: a func, chan, map or unsafe pointer, or a
// Sizer in an unexported field. Values must not hold pointer cycles.
func HashValues(domain string, keys int64, vs ...any) (uint64, bool) {
	w := valueHasher{h: fnv.New64a(), keys: keys}
	w.str(domain)
	for _, v := range vs {
		if !w.value(reflect.ValueOf(v)) {
			return 0, false
		}
	}
	return w.h.Sum64(), true
}

var sizerType = reflect.TypeFor[Sizer]()

type valueHasher struct {
	h    hash.Hash64
	keys int64
	buf  [8]byte
}

func (w *valueHasher) u64(x uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], x)
	w.h.Write(w.buf[:])
}

// str writes s length-prefixed, so adjacent strings cannot run together.
func (w *valueHasher) str(s string) {
	w.u64(uint64(len(s)))
	io.WriteString(w.h, s)
}

func (w *valueHasher) value(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		w.str(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		w.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		w.u64(math.Float64bits(v.Float()))
	case reflect.String:
		w.str(v.String())
	case reflect.Array, reflect.Slice:
		w.u64(uint64(v.Len()))
		for i := range v.Len() {
			if !w.value(v.Index(i)) {
				return false
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if !w.value(v.Field(i)) {
				return false
			}
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			w.u64(0)
			return true
		}
		w.u64(1)
		if v.Type() == sizerType {
			if !v.CanInterface() {
				return false
			}
			sz := v.Interface().(Sizer)
			w.str(sz.Name())
			for k := range w.keys {
				w.u64(uint64(sz.SizeOf(k)))
			}
			return true
		}
		if v.Kind() == reflect.Interface {
			w.str(v.Elem().Type().String())
		}
		return w.value(v.Elem())
	default:
		return false
	}
	return true
}
