package checkin

import (
	"reflect"
	"testing"

	"github.com/checkin-kv/checkin/internal/inject"
)

// runPhaseFields are the Config fields LoadFingerprint leaves out (Seed only
// while the NAND fault model is off). Keep in step with clearRunPhase.
var runPhaseFields = map[string]bool{
	"Seed":                 true,
	"CheckpointInterval":   true,
	"JournalSoftFrac":      true,
	"CompressRatio":        true,
	"LockDuringCheckpoint": true,
	"Compaction":           true,
	"MemtableEntries":      true,
	"Strategy":             true,
}

// faultModelOnly are the Config fields that steer nothing while the NAND
// fault model is off, so resolve settles them then: the sensitivity walk
// mutates them with the model on.
var faultModelOnly = map[string]bool{"SpareBlocksPerDie": true}

// mutateField changes field name of cfg to a different value that resolve
// accepts, or reports false when it has no rule for the field's kind.
func mutateField(cfg *Config, name string) bool {
	f := reflect.ValueOf(cfg).Elem().FieldByName(name)
	named := map[string]any{
		"Engine":     "lsm",
		"Compaction": "tiered",
		"GCPolicy":   "fifo",
		"FTLMap":     "dftl",
		// Another remapping strategy: the run-phase part of the strategy
		// moves, its slot alignment does not.
		"Strategy": StrategyISCC,
		"Records":  FixedRecords(4096),
		"Injector": inject.New(),
	}
	if v, ok := named[name]; ok {
		f.Set(reflect.ValueOf(v))
		return true
	}
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + 0.01)
	case reflect.Pointer:
		if f.Type().Elem().Kind() != reflect.Bool {
			return false
		}
		// A fresh pointer: writing through the old one would alias base.
		b := !f.Elem().Bool()
		f.Set(reflect.ValueOf(&b))
	default:
		return false
	}
	return true
}

// TestFingerprintFieldSensitivity walks every Config field: changing it must
// move Fingerprint, and must leave LoadFingerprint alone exactly when the
// field is a run-phase one. A new field is covered without touching this
// test; only a new kind of field needs a rule in mutateField.
func TestFingerprintFieldSensitivity(t *testing.T) {
	base, err := resolve(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lfp0, ok := LoadFingerprint(base)
	rfp0, ok2 := Fingerprint(base)
	if !ok || !ok2 {
		t.Fatal("default config not fingerprintable")
	}
	faulty := base
	faulty.ProgramFailRate = 0.01
	lfpF, _ := LoadFingerprint(faulty)
	rfpF, _ := Fingerprint(faulty)
	typ := reflect.TypeFor[Config]()
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		cfg, lfp0, rfp0 := base, lfp0, rfp0
		if faultModelOnly[name] {
			cfg, lfp0, rfp0 = faulty, lfpF, rfpF
		}
		if !mutateField(&cfg, name) {
			t.Errorf("%s: no mutation rule for %v", name, typ.Field(i).Type)
			continue
		}
		lfp, lok := LoadFingerprint(cfg)
		rfp, rok := Fingerprint(cfg)
		if name == "Injector" || name == "TraceCapacity" {
			if lok || rok {
				t.Errorf("%s: config with live references fingerprinted", name)
			}
			continue
		}
		if !lok || !rok {
			t.Errorf("%s: mutated config not fingerprintable", name)
			continue
		}
		if rfp == rfp0 {
			t.Errorf("%s: fingerprint did not change", name)
		}
		if moved := lfp != lfp0; moved == runPhaseFields[name] {
			t.Errorf("%s: load fingerprint moved=%v, run-phase=%v", name, moved, runPhaseFields[name])
		}
	}

	// Zero fields and their explicit defaults fingerprint identically.
	if lfp, _ := LoadFingerprint(DefaultConfig()); lfp != lfp0 {
		t.Error("resolving changed the load fingerprint")
	}
	if rfp, _ := Fingerprint(DefaultConfig()); rfp != rfp0 {
		t.Error("resolving changed the fingerprint")
	}

	// The strategy's remap alignment stays in the load fingerprint.
	baseline := base
	baseline.Strategy = StrategyBaseline
	if lfp, _ := LoadFingerprint(baseline); lfp == lfp0 {
		t.Error("remap alignment left the load fingerprint")
	}
	// With the fault model on, Load's writes draw faults seeded from Seed.
	faultySeed := faulty
	faultySeed.Seed++
	if lfp, _ := LoadFingerprint(faultySeed); lfp == lfpF {
		t.Error("Seed left the load fingerprint with the fault model on")
	}
	// The two flash-resident models leave different post-Load CMT state.
	dftl, basic := base, base
	dftl.FTLMap, basic.FTLMap = "dftl", "dftl-basic"
	lfpDFTL, _ := LoadFingerprint(dftl)
	if lfp, _ := LoadFingerprint(basic); lfp == lfpDFTL {
		t.Error("dftl and dftl-basic share a load fingerprint")
	}
	// An invalid config has no fingerprint.
	bad := base
	bad.GCPolicy = "bogus"
	if _, ok := Fingerprint(bad); ok {
		t.Error("invalid config fingerprinted")
	}
}

// zeroIsSetting names the Config fields whose zero a DB runs as zero, each
// with what the zero means. Every other field must resolve to a nonzero
// default.
var zeroIsSetting = map[string]string{
	"Strategy":             "Baseline",
	"LockDuringCheckpoint": "queries keep running during checkpoints",
	"TraceCapacity":        "tracing off",
	"WearDeltaThreshold":   "static wear leveling off",
	"Injector":             "no fault injection",
	"ReadRetryRate":        "NAND fault model off",
	"RetryEscalation":      "NAND fault model off",
	"UncorrectableRate":    "NAND fault model off",
	"ProgramFailRate":      "NAND fault model off",
	"EraseFailRate":        "NAND fault model off",
	"WearErrorFactor":      "NAND fault model off",
	"SpareBlocksPerDie":    "no spare pool while the fault model is off",
	"CommandTimeout":       "no command timeout",
}

// TestZeroFieldFingerprintsAsReported walks every Config field on both
// engines under the DRAM-resident and the flash-resident mapping table: a
// DB opened with the field zero reports a nonzero value for it unless
// zeroIsSetting names the field, and the zero field fingerprints like the
// value the DB reports, so a zero field and its explicit default key one
// run.
func TestZeroFieldFingerprintsAsReported(t *testing.T) {
	typ := reflect.TypeFor[Config]()
	for _, engine := range EngineNames() {
		for _, ftlMap := range []string{"dram", "dftl"} {
			base := DefaultConfig()
			base.Engine = engine
			base.FTLMap = ftlMap
			base.Keys = 2000
			for i := range typ.NumField() {
				name := typ.Field(i).Name
				zeroed := base
				reflect.ValueOf(&zeroed).Elem().Field(i).SetZero()
				db, err := Open(zeroed)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", engine, ftlMap, name, err)
				}
				reported := reflect.ValueOf(db.Config()).Field(i)
				if _, ok := zeroIsSetting[name]; !ok && reported.IsZero() {
					t.Errorf("%s/%s/%s: resolves to zero; give it a default in resolve or name it in zeroIsSetting", engine, ftlMap, name)
				}
				explicit := zeroed
				reflect.ValueOf(&explicit).Elem().Field(i).Set(reported)
				fz, okz := Fingerprint(zeroed)
				fe, oke := Fingerprint(explicit)
				if fz != fe || okz != oke {
					t.Errorf("%s/%s/%s: zero fingerprints %016x, the reported %v %016x", engine, ftlMap, name, fz, reported, fe)
				}
			}
		}
	}

	// A CMT bound below two translation pages' worth of entries (1024 at
	// the 4 KB page) runs as that floor, so the DB reports the floor and
	// both settings key one run.
	small := DefaultConfig()
	small.FTLMap = "dftl"
	small.Keys = 2000
	small.CMTEntries = 1
	db, err := Open(small)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Config().CMTEntries; got != 1024 {
		t.Errorf("CMTEntries 1 reports %d, want the floor 1024", got)
	}
	floor := small
	floor.CMTEntries = 1024
	fs, _ := Fingerprint(small)
	if ff, _ := Fingerprint(floor); fs != ff {
		t.Errorf("CMTEntries 1 fingerprints %016x, the floor %016x", fs, ff)
	}
}

// TestHashValuesSeparation: domains, string boundaries, nil-versus-zero
// pointers and same-named sizers of different sizes all separate, and
// values without a stable encoding refuse.
func TestHashValuesSeparation(t *testing.T) {
	type sized struct{ S Sizer }
	zero := 0
	pairs := [][2][]any{
		{{"ab", "c"}, {"a", "bc"}},
		{{[]int{1}, 2}, {[]int{1, 2}}},
		{{(*int)(nil)}, {&zero}},
		{{sized{}}, {sized{FixedRecords(0)}}},
		{{sized{MixedRecords("m", []int{1}, []int{1})}}, {sized{MixedRecords("m", []int{2}, []int{1})}}},
	}
	for _, p := range pairs {
		a, _ := HashValues("x", 4, p[0]...)
		b, _ := HashValues("x", 4, p[1]...)
		if a == b {
			t.Errorf("%v and %v collide", p[0], p[1])
		}
	}
	a, _ := HashValues("load", 0, 12)
	b, _ := HashValues("run", 0, 12)
	if a == b {
		t.Error("domains collide")
	}
	if _, ok := HashValues("x", 0, map[int]int{}); ok {
		t.Error("map hashed")
	}
}

// TestSpareBlocksSettledWithoutFaultModel: no block goes bad while the NAND
// fault model is off, so the FTL reserves no spares whatever
// SpareBlocksPerDie says. resolve settles the field to 0 then, so the DB
// reports what runs and identical runs share a fingerprint; with the model
// on, an explicit value is kept and keys its own runs.
func TestSpareBlocksSettledWithoutFaultModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Keys = 2000
	spares := cfg
	spares.SpareBlocksPerDie = 4
	db, err := Open(spares)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Config().SpareBlocksPerDie; n != 0 {
		t.Errorf("fault model off: SpareBlocksPerDie 4 reports %d, want 0", n)
	}
	fp0, _ := Fingerprint(cfg)
	if fp, _ := Fingerprint(spares); fp != fp0 {
		t.Errorf("fault model off: SpareBlocksPerDie 4 fingerprints %016x, 0 %016x", fp, fp0)
	}

	cfg.ProgramFailRate, spares.ProgramFailRate = 0.01, 0.01
	db, err = Open(spares)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Config().SpareBlocksPerDie; n != 4 {
		t.Errorf("fault model on: SpareBlocksPerDie 4 reports %d", n)
	}
	fp0, _ = Fingerprint(cfg)
	if fp, _ := Fingerprint(spares); fp == fp0 {
		t.Error("fault model on: SpareBlocksPerDie 4 fingerprints like the default 2")
	}
}
