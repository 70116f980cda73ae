package check

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/inject"
)

// dftlMatrixSites are the crash points the dftl matrix arms: the three
// translation-page sites themselves (a crash after a threshold writeback, a
// dirty-tail eviction writeback, a translation-page GC migration) plus
// three core sites proving the ordinary crash points still hold with the
// flash-resident mapping table underneath. The remaining sites are covered
// by the dram-mode TestCrashMatrix.
var dftlMatrixSites = []inject.Site{
	inject.SiteTransFlush,
	inject.SiteTransEvict,
	inject.SiteTransGC,
	inject.SiteJournalCommit,
	inject.SiteCheckpointApply,
	inject.SiteGCMigrate,
}

// TestDFTLCrashMatrix is the dftl analogue of TestCrashMatrix: every
// strategy × seed replays its trace with the flash-resident mapping table on
// (CMT pinned small, differential mapping oracle armed) and crashes at
// sampled hits of every dftl-matrix site that fired. Each crash instant
// validates host recovery, the device SPOR rebuild — which now includes the
// global translation directory — and the FTL invariants, whose dftl section
// sweeps the CMT, LRU, directory and flash-resident entry coherence.
// A dftl-basic leg crash-tests the basic layer's paths (demanded-entry
// insert, strict-LRU eviction, no cut batch) on the two remap-heavy
// strategies and one seed. Failures print a (seed, site, hit, -ftlmap)
// line that reproduces in one command.
func TestDFTLCrashMatrix(t *testing.T) {
	agg := dftlMatrix(t, DFTLOptions("dftl"), checkin.Strategies, matrixSeeds)
	// Coverage: threshold writebacks must fire for every strategy; the
	// rarer dirty-tail eviction writeback is asserted globally. The
	// trans-gc migration needs GC to dig into a block still holding live
	// translation pages — the full-stack workload reclaims fully-dead
	// translation blocks first, so that site is covered at the FTL layer
	// (TestTransGCCrashConsistency in internal/ftl), mirroring how the
	// wear-level site is handled.
	evicts := 0
	for _, s := range checkin.Strategies {
		c := agg[s]
		t.Logf("%s: trans-flush=%d trans-evict=%d trans-gc=%d", s,
			c.RunHits[inject.SiteTransFlush], c.RunHits[inject.SiteTransEvict], c.RunHits[inject.SiteTransGC])
		if c.RunHits[inject.SiteTransFlush] == 0 {
			t.Errorf("strategy %s never hit %s across %v — dftl coverage lost", s, inject.SiteTransFlush, matrixSeeds)
		}
		evicts += c.RunHits[inject.SiteTransEvict]
	}
	if evicts == 0 {
		t.Errorf("no strategy hit %s across %v — dftl coverage lost", inject.SiteTransEvict, matrixSeeds)
	}

	t.Run("dftl-basic", func(t *testing.T) {
		basic := []checkin.Strategy{checkin.StrategyCheckIn, checkin.StrategyISCC}
		agg := dftlMatrix(t, DFTLOptions("dftl-basic"), basic, matrixSeeds[:1])
		for _, s := range basic {
			c := agg[s]
			t.Logf("%s: trans-flush=%d trans-evict=%d", s, c.RunHits[inject.SiteTransFlush], c.RunHits[inject.SiteTransEvict])
			if c.RunHits[inject.SiteTransFlush] == 0 || c.RunHits[inject.SiteTransEvict] == 0 {
				t.Errorf("strategy %s missed a translation writeback site under dftl-basic — basic-layer coverage lost", s)
			}
		}
	})
}

// dftlMatrix runs the dftl-matrix sites for every strategy × seed as
// subtests and returns each strategy's census summed over the seeds.
func dftlMatrix(t *testing.T, opts Options, strategies []checkin.Strategy, seeds []int64) map[checkin.Strategy]*Census {
	agg := make(map[checkin.Strategy]*Census)
	for _, seed := range seeds {
		tr, err := NewTrace(opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strategies {
			if agg[s] == nil {
				agg[s] = &Census{}
			}
			t.Run(fmt.Sprintf("%s/seed%d", s, seed), func(t *testing.T) {
				results, census, err := CrashMatrixSites(s, seed, tr, opts, dftlMatrixSites)
				if err != nil {
					t.Fatal(err)
				}
				if len(results) == 0 {
					t.Fatal("dftl matrix produced no crash runs")
				}
				for site, n := range census.RunHits {
					agg[s].RunHits[site] += n
				}
				for _, r := range results {
					if !r.Fired {
						t.Errorf("%s — armed crash never fired (census drifted?)", r)
					}
					if r.Err != nil {
						t.Errorf("%s\n  reproduce: %s", r, r.Repro())
					}
				}
			})
		}
	}
	return agg
}

// TestDFTLStrategyEquivalence replays one byte-identical trace on all five
// strategies under dftl and asserts they converge to the identical final
// key/value state: the flash-resident mapping table changes costs, never
// outcomes.
func TestDFTLStrategyEquivalence(t *testing.T) {
	opts := DFTLOptions("dftl")
	tr, err := NewTrace(opts, 11)
	if err != nil {
		t.Fatal(err)
	}
	var ref []int64
	var refStrategy checkin.Strategy
	for _, s := range checkin.Strategies {
		got, err := FinalVersions(s, 11, tr, opts)
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

// TestDFTLReproLine pins the -ftlmap flag onto dftl repro lines (and keeps
// it off dram ones), then replays a dftl-basic line the way checkin-sim
// -crashpoints does: its flags must select the options the run was built
// with, and the replayed run must end the same.
func TestDFTLReproLine(t *testing.T) {
	r := CrashResult{Strategy: checkin.StrategyCheckIn, Seed: 2, Site: inject.SiteTransEvict, Hit: 3, FTLMap: "dftl"}
	if repro := r.Repro(); !strings.Contains(repro, "-ftlmap=dftl") || !strings.Contains(repro, "-site=trans-evict") {
		t.Errorf("dftl repro line %q missing -ftlmap/-site", repro)
	}
	r.FTLMap = ""
	if repro := r.Repro(); strings.Contains(repro, "-ftlmap") {
		t.Errorf("dram repro line %q must not carry -ftlmap", repro)
	}

	opts := DFTLOptions("dftl-basic")
	tr, err := NewTrace(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := RunCrash(checkin.StrategyCheckIn, 1, inject.SiteTransFlush, 1, tr, opts)
	if !want.Fired || want.Err != nil {
		t.Fatalf("dftl-basic crash run: %s", want)
	}
	line := want.Repro()
	if !strings.Contains(line, "-ftlmap=dftl-basic") {
		t.Fatalf("dftl-basic repro line %q missing -ftlmap=dftl-basic", line)
	}
	// checkin-sim's flags and defaults, as the line sets them.
	fs := flag.NewFlagSet("checkin-sim", flag.ContinueOnError)
	fs.Bool("crashpoints", false, "")
	strategy := fs.String("strategy", "Check-In", "")
	seed := fs.Int64("seed", 1, "")
	site := fs.String("site", "", "")
	hit := fs.Int("hit", 0, "")
	errProfile := fs.String("errors", "off", "")
	ftlmap := fs.String("ftlmap", "dram", "")
	engine := fs.String("engine", "journal", "")
	compaction := fs.String("compaction", "leveled", "")
	if err := fs.Parse(strings.Fields(line)[1:]); err != nil {
		t.Fatal(err)
	}
	replayOpts, err := ReproOptions(*errProfile, *ftlmap, *engine, *compaction)
	if err != nil {
		t.Fatal(err)
	}
	if replayOpts != opts {
		t.Fatalf("repro line %q selects options %+v, the run used %+v", line, replayOpts, opts)
	}
	s, err := checkin.ParseStrategy(*strategy)
	if err != nil {
		t.Fatal(err)
	}
	st, err := inject.ParseSite(*site)
	if err != nil {
		t.Fatal(err)
	}
	replayTrace, err := NewTrace(replayOpts, *seed)
	if err != nil {
		t.Fatal(err)
	}
	got := RunCrash(s, *seed, st, *hit, replayTrace, replayOpts)
	if got.String() != want.String() || got.Repro() != line {
		t.Errorf("replay of %q ended %s (%s), want %s", line, got, got.Repro(), want)
	}
}
