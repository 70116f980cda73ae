package lsm

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// findNewest is the reference search the newest-version index replaces:
// level 0 runs in reverse creation order, then down the hierarchy — upper
// levels shadow lower ones, the standard LSM read invariant.
func findNewest(en *Engine, key int64) (*run, int) {
	for level := 0; level < maxLevels; level++ {
		rs := en.levels[level]
		for i := len(rs) - 1; i >= 0; i-- {
			if j, ok := rs[i].find(key); ok {
				return rs[i], j
			}
		}
	}
	return nil, 0
}

// sortEntries orders entries by key.
func sortEntries(entries []runEntry) {
	slices.SortFunc(entries, func(a, b runEntry) int { return cmp.Compare(a.key, b.key) })
}

// indexMismatch returns the first key whose index entry differs from the
// reference search's (offset, size, level), or "" when none does.
func indexMismatch(en *Engine) string {
	for k := range int64(len(en.newest)) {
		var want loc
		if r, i := findNewest(en, k); r != nil {
			want = loc{off: r.offs[i], size: r.sizes[i], level: int32(r.level)}
		}
		if got := en.newest[k]; got != want {
			return fmt.Sprintf("key %d: index %+v, search %+v (levels %v)", k, got, want, en.Levels())
		}
	}
	return ""
}

// fragment leaves the run area's free space as chunk-sized extents with a
// taken chunk between each two, so a compaction output larger than chunk
// has to split over several runs.
func fragment(en *Engine, chunk int64) {
	var free []extent
	for _, e := range en.alloc.free {
		for off := e.off; off+chunk <= e.off+e.len; off += 2 * chunk {
			free = append(free, extent{off: off, len: chunk})
		}
	}
	en.alloc.free = free
}

// drain runs e until no flush or compaction is left running.
func drain(e *sim.Engine, en *Engine) {
	for guard := 0; (en.compacting || en.CheckpointRunning() || e.LiveProcs() > 0) && guard < 10_000; guard++ {
		e.RunUntil(e.Now() + 10*sim.Millisecond)
	}
}

// TestNewestIndexMatchesSearch is the differential oracle for the
// newest-version index: after every install — the load's base run, each
// flush and each compaction — and after every fork, every key's entry
// must equal what a newest-first search of the runs finds. It covers both
// policies, all five strategies and three seeds, and per case a forced
// major compaction, a compaction whose output newRuns splits over a
// fragmented run area, and a scan-heavy run over the split base level.
func TestNewestIndexMatchesSearch(t *testing.T) {
	var installs int
	var fail string
	prev := afterInstall
	afterInstall = func(en *Engine) {
		installs++
		if fail == "" {
			if m := indexMismatch(en); m != "" {
				fail = fmt.Sprintf("install %d: %s", installs, m)
			}
		}
	}
	t.Cleanup(func() { afterInstall = prev })
	check := func(t *testing.T, phase string) {
		t.Helper()
		if fail != "" {
			t.Fatalf("%s: %s", phase, fail)
		}
	}

	mixed := workload.Mix{ReadPct: 40, UpdatePct: 50, DeletePct: 10}
	scans := workload.Mix{ReadPct: 10, UpdatePct: 50, ScanPct: 40, ScanLen: 50}
	for _, policy := range []string{PolicyLeveled, PolicyTiered} {
		for _, s := range core.Strategies {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/%s/seed%d", policy, s, seed), func(t *testing.T) {
					installs, fail = 0, ""
					e, en := newTestEngine(t, s, func(c *Config) {
						c.Policy = policy
						c.MemtableEntries = 64
						c.Seed = seed
					})
					en.Load()
					check(t, "load")
					spec := core.RunSpec{Threads: 4, TotalQueries: 3000, Mix: mixed, Zipfian: true}
					if _, err := en.Run(spec); err != nil {
						t.Fatal(err)
					}
					drain(e, en)
					check(t, "run")
					st := en.Stats()
					if st.Flushes == 0 || st.Compactions == 0 {
						t.Fatalf("run made %d flushes and %d compactions, want both", st.Flushes, st.Compactions)
					}

					// The copy's index must match its own (shared) runs;
					// later installs go to the copy.
					cp, err := copyEngine(en)
					if err != nil {
						t.Fatal(err)
					}
					if m := indexMismatch(cp); m != "" {
						t.Fatalf("copy: %s", m)
					}
					en = cp

					runProc(e, func(p *sim.Proc) {
						if !en.startCompaction(true) {
							t.Error("forced major compaction did not start")
							return
						}
						p.Wait(en.compactDone)
					})
					drain(e, en)
					check(t, "forced major")
					if en.Stats().MajorCompactions == 0 {
						t.Fatal("no major compaction ran")
					}

					fragment(en, 64<<10)
					runProc(e, func(p *sim.Proc) {
						for i := int64(0); i < 40; i++ {
							update(en, p, (seed*97+i*13)%en.cfg.Keys, 512)
						}
						p.Wait(en.TriggerCheckpoint())
						if !en.startCompaction(true) {
							t.Error("forced compaction over the fragmented area did not start")
							return
						}
						p.Wait(en.compactDone)
					})
					drain(e, en)
					check(t, "split")
					if n := len(en.levels[baseLevel]); n < 2 {
						t.Fatalf("compaction over a fragmented area left %d base runs, want a split", n)
					}

					if _, err := en.Run(core.RunSpec{Threads: 4, TotalQueries: 1500, Mix: scans, Zipfian: true}); err != nil {
						t.Fatal(err)
					}
					drain(e, en)
					check(t, "scans")
					if m := indexMismatch(en); m != "" {
						t.Fatalf("after scans: %s", m)
					}
				})
			}
		}
	}
}
