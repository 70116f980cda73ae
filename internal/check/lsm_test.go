package check

import (
	"fmt"
	"sync"
	"testing"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/inject"
)

// lsmPolicies are the compaction policies the LSM matrix covers.
var lsmPolicies = []string{"leveled", "tiered"}

// TestEngineEquivalence is the cross-backend differential oracle: one
// byte-identical operation stream drives the journal engine and the LSM
// engine (both compaction policies), with an explicit checkpoint epoch
// every 500 operations. At every epoch the recovered-version vector — the
// user-visible KV state a crash would reconstruct — must be identical
// across backends, and after the final epoch both must pass full
// validation (model equality, SPOR, FTL invariants). Any divergence names
// the epoch and key.
func TestEngineEquivalence(t *testing.T) {
	const epochEvery = 500
	for _, seed := range matrixSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opts := DefaultOptions()
			tr, err := NewTrace(opts, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := EpochSignatures(checkin.StrategyCheckIn, seed, tr, opts, epochEvery)
			if err != nil {
				t.Fatalf("journal: %v", err)
			}
			if len(ref) == 0 {
				t.Fatal("no checkpoint epochs recorded")
			}
			for _, policy := range lsmPolicies {
				lopts := LSMOptions(policy)
				lopts.Ops = opts.Ops // same trace for both backends
				got, err := EpochSignatures(checkin.StrategyCheckIn, seed, tr, lopts, epochEvery)
				if err != nil {
					t.Fatalf("lsm/%s: %v", policy, err)
				}
				if len(got) != len(ref) {
					t.Fatalf("lsm/%s recorded %d epochs, journal %d", policy, len(got), len(ref))
				}
				for e := range ref {
					for k := range ref[e] {
						if ref[e][k] != got[e][k] {
							t.Fatalf("lsm/%s diverges from journal at epoch %d, key %d: journal v%d, lsm v%d",
								policy, e, k, ref[e][k], got[e][k])
						}
					}
				}
			}
		})
	}
}

// TestLSMCrashMatrix is TestCrashMatrix for the LSM backend: for each of
// the five strategies and both compaction policies, census the injection
// schedule, crash at sampled hits of every site that fired — including the
// five LSM sites and the flush's device-side copy or remap — and assert
// recovery, SPOR and the FTL invariants. Baseline and Check-In crash on
// every seed; ISC-A, ISC-B and ISC-C on one each, a different one per
// strategy, which keeps the matrix's wall time near its two-strategy cost.
// Failures print a (seed, site, hit, -engine=lsm) line that reproduces in
// one command.
func TestLSMCrashMatrix(t *testing.T) {
	for _, policy := range lsmPolicies {
		opts := LSMOptions(policy)
		for _, seed := range matrixSeeds {
			tr, err := NewTrace(opts, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range checkin.Strategies {
				if s != checkin.StrategyBaseline && s != checkin.StrategyCheckIn && seed != matrixSeeds[i%len(matrixSeeds)] {
					continue
				}
				s, seed, tr, policy, opts := s, seed, tr, policy, opts
				t.Run(fmt.Sprintf("%s/%s/seed%d", policy, s, seed), func(t *testing.T) {
					t.Parallel()
					results, census, err := CrashMatrix(s, seed, tr, opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(results) == 0 {
						t.Fatal("matrix produced no crash runs")
					}
					for _, r := range results {
						if !r.Fired {
							t.Errorf("%s — armed crash never fired (census drifted?)", r)
						}
						if r.Err != nil {
							t.Errorf("%s\n  reproduce: %s", r, r.Repro())
						}
					}
					assertLSMCoverage(t, s, census)
				})
			}
		}
	}
}

// assertLSMCoverage pins the sites the LSM backend must exercise.
func assertLSMCoverage(t *testing.T, s checkin.Strategy, c *Census) {
	t.Helper()
	want := []inject.Site{
		inject.SiteWALAppend,
		inject.SiteWALCommit,
		inject.SiteMemFlush,
		inject.SiteCompactInstall,
		inject.SiteManifestPublish,
		inject.SiteDeallocate,
	}
	switch {
	case s.UsesRemap():
		want = append(want, inject.SiteCheckpointRemap)
	case s.Offloaded():
		want = append(want, inject.SiteCheckpointCopy)
	}
	for _, site := range want {
		if c.RunHits[site] == 0 {
			t.Errorf("lsm %s never hit site %s — crash coverage lost", s, site)
		}
	}
	// The journal engine's sites must NOT fire under the LSM backend.
	for _, site := range []inject.Site{inject.SiteJournalAppend, inject.SiteJournalCommit, inject.SiteCheckpointCut} {
		if c.RunHits[site] != 0 {
			t.Errorf("lsm run hit journal-engine site %s %d times", site, c.RunHits[site])
		}
	}
}

// TestLSMStrategyEquivalence: all five checkpoint strategies applied to the
// memtable flush must converge to the identical final key/value state on
// one byte-identical trace — the strategies differ in transfer mechanism
// only, never in recovered content.
func TestLSMStrategyEquivalence(t *testing.T) {
	opts := LSMOptions("leveled")
	tr, err := checkin.RecordWorkload(opts.Keys, sizer(), checkin.WorkloadA, true, opts.Ops, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ref []int64
	var refStrategy checkin.Strategy
	for _, s := range checkin.Strategies {
		got, err := FinalVersions(s, 7, tr, opts)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if ref == nil {
			ref, refStrategy = got, s
			continue
		}
		for k := range ref {
			if ref[k] != got[k] {
				t.Fatalf("%s diverges from %s at key %d: v%d vs v%d", s, refStrategy, k, got[k], ref[k])
			}
		}
	}
}

// lsmFuzzTraces memoizes per-seed traces for FuzzLSMRecovery (trace
// recording dominates the per-execution cost).
var lsmFuzzTraces sync.Map // int64 -> *checkin.Trace

func lsmFuzzTrace(t *testing.T, seed int64) *checkin.Trace {
	if tr, ok := lsmFuzzTraces.Load(seed); ok {
		return tr.(*checkin.Trace)
	}
	tr, err := NewTrace(lsmFuzzOptions("leveled"), seed)
	if err != nil {
		t.Fatal(err)
	}
	lsmFuzzTraces.Store(seed, tr)
	return tr
}

// lsmFuzzOptions shrinks LSMOptions so each fuzz execution stays fast while
// still crossing flushes and at least one compaction.
func lsmFuzzOptions(policy string) Options {
	o := LSMOptions(policy)
	o.Keys = 400
	o.Ops = 1200
	o.Threads = 2
	o.CrashesPerSite = 1
	o.MemtableEntries = 96
	return o
}

// FuzzLSMRecovery lets the fuzzer steer the LSM crash schedule: it picks
// (seed, strategy, policy, site, hit), the harness crashes there, and
// recovery must equal the reference model with the SPOR rebuild lossless
// and the FTL invariants intact. Hits past a site's schedule simply never
// fire and the run validates crash-free.
func FuzzLSMRecovery(f *testing.F) {
	f.Add(int64(1), uint8(4), false, uint8(inject.SiteWALCommit), uint8(3))
	f.Add(int64(2), uint8(0), false, uint8(inject.SiteMemFlush), uint8(2))
	f.Add(int64(3), uint8(4), true, uint8(inject.SiteCompactInstall), uint8(1))
	f.Add(int64(5), uint8(3), false, uint8(inject.SiteManifestPublish), uint8(4))
	f.Add(int64(7), uint8(1), true, uint8(inject.SiteWALAppend), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, strategyB uint8, tiered bool, siteB, hitB uint8) {
		if seed < 0 {
			seed = -seed
		}
		seed = seed%64 + 1 // bound the trace cache
		strategy := checkin.Strategies[int(strategyB)%len(checkin.Strategies)]
		site := inject.Site(int(siteB) % int(inject.NumSites))
		hit := int(hitB)%200 + 1
		policy := "leveled"
		if tiered {
			policy = "tiered"
		}
		opts := lsmFuzzOptions(policy)
		tr := lsmFuzzTrace(t, seed)
		res := RunCrash(strategy, seed, site, hit, tr, opts)
		if res.Err != nil {
			t.Fatalf("%s\n  reproduce: %s", res, res.Repro())
		}
	})
}
