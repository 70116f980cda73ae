package checkin

import (
	"testing"
	"time"
)

// TestTagHashUniqueness: duplicate tag names panic, including a name
// reserved by an excluded conditional tag — the collision class the
// table-driven helper exists to catch.
func TestTagHashUniqueness(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic on duplicate tag", name)
			}
		}()
		fn()
	}
	mustPanic("tag/tag", func() {
		h := NewTagHash("x")
		h.Tag("a", "%d", 1)
		h.Tag("a", "%d", 2)
	})
	mustPanic("tagif-excluded/tag", func() {
		h := NewTagHash("x")
		h.TagIf(false, "a", "%d", 1)
		h.Tag("a", "%d", 2)
	})
	mustPanic("tag/tagif-included", func() {
		h := NewTagHash("x")
		h.Tag("a", "%d", 1)
		h.TagIf(true, "a", "%d", 2)
	})
}

// TestTagHashSeparation: domains, tag names and values all separate — no
// two distinct constructions may collide by concatenation accidents.
func TestTagHashSeparation(t *testing.T) {
	sum := func(domain string, build func(*TagHash)) uint64 {
		h := NewTagHash(domain)
		build(h)
		return h.Sum()
	}
	a := sum("load", func(h *TagHash) { h.Tag("ab", "%d", 12) })
	b := sum("load", func(h *TagHash) { h.Tag("a", "%s", "b=12") })
	c := sum("run", func(h *TagHash) { h.Tag("ab", "%d", 12) })
	d := sum("load", func(h *TagHash) { h.Tag("ab", "%d", 13) })
	e := sum("load", func(h *TagHash) { h.TagIf(false, "ab", "%d", 12) })
	if a == b || a == c || a == d || a == e {
		t.Fatalf("fingerprint collision: a=%x b=%x c=%x d=%x e=%x", a, b, c, d, e)
	}
	if again := sum("load", func(h *TagHash) { h.Tag("ab", "%d", 12) }); again != a {
		t.Fatalf("fingerprint not stable: %x vs %x", again, a)
	}
}

// TestFingerprintFieldSensitivity: every load-phase field the fingerprint
// claims to cover must change the fingerprint when it changes, conditional
// tags stay absent at their defaults (dram fingerprints must not move when
// the dftl knobs exist but are off), and run-phase knobs must change only
// the run fingerprint.
func TestFingerprintFieldSensitivity(t *testing.T) {
	base := DefaultConfig()
	lfp0, ok := LoadFingerprint(base)
	if !ok {
		t.Fatal("default config not snapshottable")
	}
	mutations := map[string]func(*Config){
		"Keys":             func(c *Config) { c.Keys = c.Keys + 1 },
		"Channels":         func(c *Config) { c.Channels *= 2 },
		"PagesPerBlock":    func(c *Config) { c.PagesPerBlock *= 2 },
		"MappingUnit":      func(c *Config) { c.MappingUnit = 4096 },
		"JournalHalfMB":    func(c *Config) { c.JournalHalfMB += 8 },
		"QueueDepth":       func(c *Config) { c.QueueDepth *= 2 },
		"FTLMap":           func(c *Config) { c.FTLMap = "dftl" },
		"FTLMap/basic":     func(c *Config) { c.FTLMap = "dftl-basic" },
		"MetaFlushEntries": func(c *Config) { c.MetaFlushEntries = 128 },
		"ReadRetryRate":    func(c *Config) { c.ReadRetryRate = 0.01 },
		// Strategy shapes the load fingerprint through remap slot alignment.
		"Strategy": func(c *Config) { c.Strategy = StrategyBaseline },
		// The backend shapes post-Load state from the ground up: the
		// template cache must never serve a journal snapshot to an LSM run.
		"Engine": func(c *Config) { c.Engine = "lsm" },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		lfp, ok := LoadFingerprint(cfg)
		if !ok {
			t.Fatalf("%s: mutated config not snapshottable", name)
		}
		if lfp == lfp0 {
			t.Errorf("%s: load fingerprint did not change", name)
		}
	}
	// The two flash-resident models leave different post-Load CMT state
	// (page-fill, eviction order): the template cache must never serve a
	// dftl snapshot to a dftl-basic run.
	dftl, basic := base, base
	dftl.FTLMap, basic.FTLMap = "dftl", "dftl-basic"
	lfpDFTL, _ := LoadFingerprint(dftl)
	lfpBasic, _ := LoadFingerprint(basic)
	if lfpDFTL == lfpBasic {
		t.Error("dftl and dftl-basic share a load fingerprint")
	}
	// Run-phase knobs leave the load fingerprint alone but move the run one.
	rfp0, _ := Fingerprint(base)
	runKnobs := map[string]func(*Config){
		"Seed":               func(c *Config) { c.Seed = 99 },
		"CheckpointInterval": func(c *Config) { c.CheckpointInterval = 123 * time.Millisecond },
	}
	for name, mutate := range runKnobs {
		cfg := base
		mutate(&cfg)
		lfp, _ := LoadFingerprint(cfg)
		if lfp != lfp0 {
			t.Errorf("%s: run-phase knob moved the load fingerprint", name)
		}
		rfp, _ := Fingerprint(cfg)
		if rfp == rfp0 {
			t.Errorf("%s: run fingerprint did not change", name)
		}
	}
	// Zero-value and explicitly defaulted configs fingerprint identically.
	if lfpd, _ := LoadFingerprint(withDefaults(base)); lfpd != lfp0 {
		t.Error("withDefaults changed the load fingerprint")
	}

	// LSM run-phase shape: one LSM template serves both compaction policies
	// and any memtable bound (run-fingerprint tags only), while selecting
	// the backend itself moves the load fingerprint — and the explicit
	// "journal" spelling hashes identically to the zero-value default.
	lsmBase := base
	lsmBase.Engine = "lsm"
	llfp0, ok := LoadFingerprint(lsmBase)
	if !ok {
		t.Fatal("lsm config not snapshottable")
	}
	lrfp0, _ := Fingerprint(lsmBase)
	lsmRunKnobs := map[string]func(*Config){
		"Compaction":      func(c *Config) { c.Compaction = "tiered" },
		"MemtableEntries": func(c *Config) { c.MemtableEntries = 1024 },
	}
	for name, mutate := range lsmRunKnobs {
		cfg := lsmBase
		mutate(&cfg)
		lfp, _ := LoadFingerprint(cfg)
		if lfp != llfp0 {
			t.Errorf("%s: LSM run-phase knob moved the load fingerprint", name)
		}
		rfp, _ := Fingerprint(cfg)
		if rfp == lrfp0 {
			t.Errorf("%s: LSM run fingerprint did not change", name)
		}
	}
	explicit := base
	explicit.Engine = "journal"
	if lfp, _ := LoadFingerprint(explicit); lfp != lfp0 {
		t.Error(`Engine "journal" fingerprints differently from the zero-value default`)
	}
	if rfp, _ := Fingerprint(explicit); rfp != rfp0 {
		t.Error(`Engine "journal" moved the run fingerprint off the zero-value default`)
	}
}
