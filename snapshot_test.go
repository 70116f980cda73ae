package checkin_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/checkin-kv/checkin"
)

// snapTestConfig is a reduced device that still exercises GC and metadata
// flushes, small enough that a load phase takes well under a second.
func snapTestConfig(s checkin.Strategy) checkin.Config {
	cfg := checkin.DefaultConfig()
	cfg.Strategy = s
	cfg.Channels = 2
	cfg.DiesPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.BlocksPerPlane = 24
	cfg.PagesPerBlock = 32
	cfg.Keys = 4000
	cfg.Records = checkin.FixedRecords(512)
	cfg.JournalHalfMB = 2
	cfg.DataCacheMB = 1
	cfg.CheckpointInterval = 50 * time.Millisecond
	return cfg
}

func snapTestSpec() checkin.RunSpec {
	return checkin.RunSpec{Threads: 4, TotalQueries: 6000, Mix: checkin.WorkloadA, Zipfian: true}
}

// runSignature reduces a finished run to a string covering the metrics
// digest, durable versions, journal stats and device state — byte-equal
// signatures mean the simulations were indistinguishable.
func runSignature(db *checkin.DB, m *checkin.Metrics) string {
	cfg := db.Config()
	return fmt.Sprintf("%s\n%v\n%+v\nnow=%v lifetime=%v energy=%v",
		m.Summary(), db.DurableVersions(), db.JournalStats(), db.Sim().Now(),
		m.Lifetime(cfg.MaxPECycles, cfg.PagesPerBlock), db.FlashEnergyMJ())
}

func directRun(t *testing.T, cfg checkin.Config, spec checkin.RunSpec) string {
	t.Helper()
	db, err := checkin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Load()
	m, err := db.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return runSignature(db, m)
}

func forkedRun(t *testing.T, snap *checkin.Snapshot, cfg checkin.Config, spec checkin.RunSpec) string {
	t.Helper()
	db, err := snap.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := db.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return runSignature(db, m)
}

func captureSnapshot(t testing.TB, cfg checkin.Config) *checkin.Snapshot {
	t.Helper()
	db, err := checkin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Load()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSnapshotForkEquivalence verifies the tentpole invariant: a forked DB
// is indistinguishable from one that ran Load itself, including when the
// fork's run-phase configuration (seed, checkpoint interval) differs from
// the template's.
func TestSnapshotForkEquivalence(t *testing.T) {
	for _, s := range []checkin.Strategy{checkin.StrategyBaseline, checkin.StrategyCheckIn} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			cfg := snapTestConfig(s)
			spec := snapTestSpec()
			snap := captureSnapshot(t, cfg)

			if got, want := forkedRun(t, snap, cfg, spec), directRun(t, cfg, spec); got != want {
				t.Errorf("forked run diverged from direct run:\n--- fork ---\n%s\n--- direct ---\n%s", got, want)
			}

			// Same load phase, different run phase: the template must be
			// reusable across seeds and checkpoint intervals.
			varied := cfg
			varied.Seed = 99
			varied.CheckpointInterval = 30 * time.Millisecond
			if got, want := forkedRun(t, snap, varied, spec), directRun(t, varied, spec); got != want {
				t.Errorf("forked run (varied run-phase config) diverged from direct run:\n--- fork ---\n%s\n--- direct ---\n%s", got, want)
			}
		})
	}
}

// TestSnapshotForkIsolation forks one snapshot from many goroutines at once
// (run under -race) and checks every fork produces the identical result —
// any shared mutable state between siblings would surface as a race or a
// divergent signature. Forks read the template's live state while they
// copy it, including the DFTL run pool and a degraded device's retired
// blocks and fault-model position.
func TestSnapshotForkIsolation(t *testing.T) {
	for name, cfg := range copyTemplates(t) {
		if name == "lsm" {
			continue // TestLSMSnapshotForkIsolation
		}
		t.Run(name, func(t *testing.T) {
			spec := snapTestSpec()
			snap := captureSnapshot(t, cfg)
			want := directRun(t, cfg, spec)

			const forks = 6
			sigs := make([]string, forks)
			var wg sync.WaitGroup
			for i := 0; i < forks; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					db, err := snap.Fork(cfg)
					if err != nil {
						sigs[i] = "fork error: " + err.Error()
						return
					}
					m, err := db.Run(spec)
					if err != nil {
						sigs[i] = "run error: " + err.Error()
						return
					}
					sigs[i] = runSignature(db, m)
				}(i)
			}
			wg.Wait()
			for i, sig := range sigs {
				if sig != want {
					t.Errorf("fork %d diverged from direct run", i)
				}
			}

			// The snapshot must stay pristine: a fork taken after all of
			// the above still matches.
			if got := forkedRun(t, snap, cfg, spec); got != want {
				t.Error("fork after concurrent use diverged — snapshot state was mutated")
			}
		})
	}
}

// TestSnapshotTemplateRefusesToRun pins the template's freeze: once
// snapshotted, a DB refuses Load and Run, since forks read its state, while
// its read accessors keep working.
func TestSnapshotTemplateRefusesToRun(t *testing.T) {
	cfg := snapTestConfig(checkin.StrategyCheckIn)
	db, err := checkin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(); err != nil {
		t.Fatal(err)
	}
	health := db.Health()
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(); err == nil {
		t.Error("Load on a snapshot template succeeded")
	}
	if _, err := db.Run(snapTestSpec()); err == nil {
		t.Error("Run on a snapshot template succeeded")
	}
	if got := db.Health(); got != health {
		t.Errorf("template health %+v, want %+v", got, health)
	}
	if got := db.Config(); got.Keys != cfg.Keys || got.Strategy != cfg.Strategy {
		t.Errorf("template config %+v does not describe the opened one", got)
	}
}

// TestSnapshotForkCrashConsistency runs the crash-oriented validators
// against forked state: host recovery, device SPOR rebuild and FTL
// invariants must hold exactly as they do for a directly loaded DB.
func TestSnapshotForkCrashConsistency(t *testing.T) {
	for _, s := range []checkin.Strategy{checkin.StrategyBaseline, checkin.StrategyCheckIn} {
		cfg := snapTestConfig(s)
		snap := captureSnapshot(t, cfg)
		db, err := snap.Fork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Run(snapTestSpec()); err != nil {
			t.Fatal(err)
		}
		rep := db.SimulateRecovery()
		if rep == nil {
			t.Fatalf("%v: nil recovery report", s)
		}
		if spor := db.SimulateSPOR(); spor.Mismatches != 0 {
			t.Errorf("%v: SPOR rebuild of forked state lost durable state: %v", s, spor)
		}
		if err := db.Device().FTL().CheckInvariants(); err != nil {
			t.Errorf("%v: FTL invariants violated on forked state: %v", s, err)
		}
	}
}

// TestSnapshotGates checks the refusal paths: unsnapshottable configs,
// snapshots taken at the wrong time, and fingerprint-mismatched forks.
func TestSnapshotGates(t *testing.T) {
	cfg := snapTestConfig(checkin.StrategyCheckIn)

	db, err := checkin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot(); err == nil {
		t.Error("snapshot before Load succeeded")
	}
	db.Load()
	if _, err := db.Run(snapTestSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot(); err == nil {
		t.Error("snapshot after Run succeeded")
	}

	traced := cfg
	traced.TraceCapacity = 64
	tdb, err := checkin.Open(traced)
	if err != nil {
		t.Fatal(err)
	}
	tdb.Load()
	if _, err := tdb.Snapshot(); err == nil {
		t.Error("snapshot with tracing enabled succeeded")
	}
	if _, ok := checkin.LoadFingerprint(traced); ok {
		t.Error("LoadFingerprint claimed a traced config is snapshottable")
	}

	snap := captureSnapshot(t, cfg)
	other := cfg
	other.Keys = cfg.Keys * 2
	if _, err := snap.Fork(other); err == nil {
		t.Error("fork with a different load fingerprint succeeded")
	}

	// Run-phase fields must not perturb the load fingerprint; load-phase
	// fields must.
	base, _ := checkin.LoadFingerprint(cfg)
	seeded := cfg
	seeded.Seed = 1234
	if fp, _ := checkin.LoadFingerprint(seeded); fp != base {
		t.Error("Seed changed the load fingerprint")
	}
	resized := cfg
	resized.BlocksPerPlane = 32
	if fp, _ := checkin.LoadFingerprint(resized); fp == base {
		t.Error("BlocksPerPlane did not change the load fingerprint")
	}
	full1, _ := checkin.Fingerprint(cfg)
	full2, _ := checkin.Fingerprint(seeded)
	if full1 == full2 {
		t.Error("Seed did not change the full fingerprint")
	}
}

// TestSnapshotForkSizerIdentity: Fork accepts a config whose record sizer is
// a distinct value equal to the template's — and the forked run matches a
// direct load — and refuses one whose sizer maps any key to another size.
// A sizer of another type with the template sizer's name and sizes is not
// equal by value; Fork accepts it by its load fingerprint.
func TestSnapshotForkSizerIdentity(t *testing.T) {
	mix := func(sizes, weights []int) checkin.Sizer { return checkin.MixedRecords("mix", sizes, weights) }
	cfg := snapTestConfig(checkin.StrategyCheckIn)
	cfg.Records = mix([]int{256, 512, 1024}, []int{1, 2, 1})
	snap := captureSnapshot(t, cfg)

	equal := cfg
	equal.Records = mix([]int{256, 512, 1024}, []int{1, 2, 1})
	equal.Seed = 99
	db, err := snap.Fork(equal)
	if err != nil {
		t.Fatalf("fork with an equal, distinct sizer refused: %v", err)
	}
	m, err := db.Run(snapTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runSignature(db, m), directRun(t, equal, snapTestSpec()); got != want {
		t.Errorf("fork with an equal sizer diverged from a direct load:\n%s\nvs\n%s", got, want)
	}
	for name, sizer := range map[string]checkin.Sizer{
		"sizes":   mix([]int{256, 512, 2048}, []int{1, 2, 1}),
		"weights": mix([]int{256, 512, 1024}, []int{1, 1, 1}),
		"fixed":   checkin.FixedRecords(512),
	} {
		other := cfg
		other.Records = sizer
		if _, err := snap.Fork(other); err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("fork with a different sizer (%s): err %v, want a fingerprint mismatch", name, err)
		}
	}

	fixed := snapTestConfig(checkin.StrategyCheckIn)
	fsnap := captureSnapshot(t, fixed)
	alike := fixed
	alike.Records = checkin.MixedRecords(fixed.Records.Name(), []int{512}, []int{1})
	if _, err := fsnap.Fork(alike); err != nil {
		t.Errorf("fork with a sizer of another type giving the same sizes refused: %v", err)
	}
	alike.Records = checkin.MixedRecords(fixed.Records.Name(), []int{1024}, []int{1})
	if _, err := fsnap.Fork(alike); err == nil {
		t.Error("fork with a same-named sizer giving other sizes succeeded")
	}
}

// TestSnapshotForkDegradedDevice round-trips a device already degraded by
// the NAND fault model: the heavy error profile makes the load phase itself
// suffer program failures and block retirements, so the captured rest point
// carries retired blocks, a drained (or partially drained) spare pool and a
// mid-stream fault-RNG state. The fork must (1) satisfy the FTL invariants
// immediately after restore, (2) replay the run phase byte-identically to a
// direct load — which only holds if the fault stream resumes from the exact
// captured state — and (3) satisfy the invariants again after the run.
func TestSnapshotForkDegradedDevice(t *testing.T) {
	profile, err := checkin.ParseErrorProfile("heavy")
	if err != nil {
		t.Fatal(err)
	}
	cfg := profile.Apply(snapTestConfig(checkin.StrategyCheckIn))
	// The reduced load phase programs only a few hundred pages; inflate the
	// program-failure rate so retirements deterministically land inside it.
	cfg.ProgramFailRate = 0.02
	spec := snapTestSpec()

	db, err := checkin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Load()
	if h := db.Health(); h.RetiredBlocks == 0 {
		t.Fatalf("load under the heavy profile retired no blocks (health %+v) — test lost its degraded premise", h)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fork, err := snap.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Device().FTL().CheckInvariants(); err != nil {
		t.Fatalf("restored degraded device violates FTL invariants: %v", err)
	}
	if got, want := fork.Health(), db.Health(); got != want {
		t.Fatalf("restored health %+v, want %+v", got, want)
	}
	m, err := fork.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := runSignature(fork, m)
	if want := directRun(t, cfg, spec); got != want {
		t.Errorf("forked degraded run diverged from direct run:\n--- fork ---\n%s\n--- direct ---\n%s", got, want)
	}
	if err := fork.Device().FTL().CheckInvariants(); err != nil {
		t.Errorf("degraded device violates FTL invariants after forked run: %v", err)
	}
}

// lsmSnapConfig is snapTestConfig on the LSM backend: a slightly larger
// device (the run area needs 3x the base-run payload beyond the WAL halves
// and manifest slots) with a memtable small enough that the run phase
// crosses several flush epochs and compactions.
func lsmSnapConfig(policy string) checkin.Config {
	cfg := snapTestConfig(checkin.StrategyCheckIn)
	cfg.Engine = "lsm"
	cfg.Compaction = policy
	cfg.MemtableEntries = 256
	cfg.BlocksPerPlane = 40
	return cfg
}

// TestLSMSnapshotForkEquivalence is the fork-vs-direct byte-equivalence
// check on the LSM backend: a DB forked from a post-Load snapshot must run
// the workload indistinguishably from one that loaded itself — WAL state,
// run layout, allocator free list and memtable all restore exactly — for
// both compaction policies, including when the fork varies run-phase knobs.
func TestLSMSnapshotForkEquivalence(t *testing.T) {
	for _, policy := range []string{"leveled", "tiered"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			cfg := lsmSnapConfig(policy)
			spec := snapTestSpec()
			snap := captureSnapshot(t, cfg)

			if got, want := forkedRun(t, snap, cfg, spec), directRun(t, cfg, spec); got != want {
				t.Errorf("forked LSM run diverged from direct run:\n--- fork ---\n%s\n--- direct ---\n%s", got, want)
			}

			// One LSM template serves both policies and any memtable bound:
			// those are run-phase knobs, outside the load fingerprint.
			varied := cfg
			varied.Seed = 99
			varied.Compaction = map[string]string{"leveled": "tiered", "tiered": "leveled"}[policy]
			varied.MemtableEntries = 192
			if got, want := forkedRun(t, snap, varied, spec), directRun(t, varied, spec); got != want {
				t.Errorf("forked LSM run (varied run-phase config) diverged from direct run:\n--- fork ---\n%s\n--- direct ---\n%s", got, want)
			}
		})
	}
}

// TestLSMSnapshotForkIsolation forks one LSM snapshot from many goroutines
// at once (run under -race): sibling forks share only snapshot state none
// of them changes (the template's runs are marked shared, so no fork
// refills one), so every fork must produce the identical signature with
// no data races across WAL buffers, run payloads or the allocator.
func TestLSMSnapshotForkIsolation(t *testing.T) {
	cfg := lsmSnapConfig("leveled")
	spec := snapTestSpec()
	snap := captureSnapshot(t, cfg)
	want := directRun(t, cfg, spec)

	const forks = 6
	sigs := make([]string, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db, err := snap.Fork(cfg)
			if err != nil {
				sigs[i] = "fork error: " + err.Error()
				return
			}
			m, err := db.Run(spec)
			if err != nil {
				sigs[i] = "run error: " + err.Error()
				return
			}
			sigs[i] = runSignature(db, m)
		}(i)
	}
	wg.Wait()
	for i, sig := range sigs {
		if sig != want {
			t.Errorf("LSM fork %d diverged from direct run:\n--- fork ---\n%s\n--- direct ---\n%s", i, sig, want)
		}
	}
	if got := forkedRun(t, snap, cfg, spec); got != want {
		t.Error("LSM fork after concurrent use diverged — snapshot state was mutated")
	}
}

// TestSnapshotEngineGate pins the cross-backend refusal: the engine is a
// load-phase axis, so a journal snapshot must never fork into an LSM config
// or vice versa — the load fingerprints differ by construction.
func TestSnapshotEngineGate(t *testing.T) {
	lsmCfg := lsmSnapConfig("leveled")
	journalCfg := lsmCfg
	journalCfg.Engine = "journal"

	jfp, ok := checkin.LoadFingerprint(journalCfg)
	if !ok {
		t.Fatal("journal config not snapshottable")
	}
	lfp, ok := checkin.LoadFingerprint(lsmCfg)
	if !ok {
		t.Fatal("lsm config not snapshottable")
	}
	if jfp == lfp {
		t.Fatal("journal and lsm configs share a load fingerprint — the template cache would serve a journal snapshot to an LSM run")
	}

	jsnap := captureSnapshot(t, journalCfg)
	if _, err := jsnap.Fork(lsmCfg); err == nil {
		t.Error("journal snapshot forked into an LSM config")
	}
	lsnap := captureSnapshot(t, lsmCfg)
	if _, err := lsnap.Fork(journalCfg); err == nil {
		t.Error("LSM snapshot forked into a journal config")
	}
}
