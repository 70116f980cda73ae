package lsm

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/workload"
)

// flushRecord is one flush transfer: the run it fills, the requests the
// test expects of it in the run's key order, and the commands it issued.
type flushRecord struct {
	run    uint64
	placed bool // want's destinations are set from the installed run
	want   []ssd.RemapEntry
	kinds  []string
	got    [][]ssd.RemapEntry
}

// TestCheckpointRequestStream records every command the LSM engine's flush
// transfers issue under each strategy while closed-loop clients keep
// writing, and compares it request by request with a reference list the
// test builds as each transfer starts: the sealed memtable's records in
// key order, each onto its slot of the flushed run (whose placement the
// test reads once the run is installed; a run never changes), split into
// the strategy's commands. The transfers pull their requests a command at
// a time as the flush runs, while the clients rewrite the same keys in
// the active memtable, so a source that read the active memtable or a
// key's newest record would differ here. Baseline writes the run from
// host memory and issues no transfer.
func TestCheckpointRequestStream(t *testing.T) {
	for _, s := range core.Strategies {
		t.Run(s.String(), func(t *testing.T) {
			_, en := newTestEngine(t, s, func(c *Config) {
				c.Keys = 1200
				c.MemtableEntries = 1000
			})
			if err := en.Load(); err != nil {
				t.Fatal(err)
			}
			var flushes []*flushRecord
			core.CheckpointTap = func(kind string, reqs []ssd.RemapEntry) {
				if kind != "" {
					f := flushes[len(flushes)-1]
					f.kinds = append(f.kinds, kind)
					f.got = append(f.got, slices.Clone(reqs))
					return
				}
				// The flush has just planned its run, the newest one.
				f := &flushRecord{run: en.nextRunID}
				for _, k := range slices.Sorted(slices.Values(en.imm.keys)) {
					rec := en.imm.cells[k]
					f.want = append(f.want, ssd.RemapEntry{Src: rec.off, Len: int64(rec.payload)})
				}
				flushes = append(flushes, f)
			}
			afterInstall = func(en *Engine) {
				for _, f := range flushes {
					for _, r := range en.levels[0] {
						if r.id == f.run && !f.placed {
							for j := range f.want {
								f.want[j].Dst = r.offs[j]
							}
							f.placed = true
						}
					}
				}
			}
			t.Cleanup(func() { core.CheckpointTap, afterInstall = nil, nil })
			spec := core.RunSpec{Threads: 16, TotalQueries: 20_000, Mix: workload.Mix{ReadPct: 30, UpdatePct: 70}}
			if _, err := en.Run(spec); err != nil {
				t.Fatal(err)
			}
			if en.st.Flushes < 2 {
				t.Fatalf("%d flushes, want several", en.st.Flushes)
			}
			if s == core.StrategyBaseline {
				if len(flushes) != 0 {
					t.Errorf("Baseline flushes made %d device-side transfers", len(flushes))
				}
				return
			}
			if len(flushes) != int(en.st.Flushes) {
				t.Fatalf("%d transfers for %d flushes", len(flushes), en.st.Flushes)
			}
			kind, batch := "multicow", 64
			switch {
			case s.UsesRemap():
				kind, batch = "remap", 128
			case s == core.StrategyISCA:
				kind, batch = "cow", 1
			}
			most := 0
			for e, f := range flushes {
				if !f.placed {
					t.Fatalf("flush %d: run %d never installed", e, f.run)
				}
				want := slices.Collect(slices.Chunk(f.want, batch))
				most = max(most, len(f.want))
				if len(f.got) != len(want) {
					t.Fatalf("flush %d: %d commands, want %d", e, len(f.got), len(want))
				}
				for c, w := range want {
					if f.kinds[c] != kind || len(f.got[c]) != len(w) {
						t.Fatalf("flush %d command %d: %s of %d requests, want %s of %d", e, c, f.kinds[c], len(f.got[c]), kind, len(w))
					}
					for i, r := range w {
						if kind == "remap" {
							r.Len = roundUp(r.Len, sector)
						}
						if f.got[c][i] != r {
							t.Fatalf("flush %d command %d request %d: %+v, want %+v", e, c, i, f.got[c][i], r)
						}
					}
				}
			}
			if most <= 2*128 {
				t.Errorf("at most %d records in a flush: no transfer refilled a command buffer", most)
			}
		})
	}
}

// hostAllocBytes returns the bytes the memory profile has recorded so far
// as allocated by the host engines: records whose innermost frame in this
// module's internal packages lies in core or lsm, except this function's
// own record buffer. The kernel's, the device's and the FTL's own
// allocations stay out. runs is the part of host a new run's metadata
// arrays took (makeRun). Callers set runtime.MemProfileRate to 1 first.
func hostAllocBytes(t *testing.T) (host, runs int64) {
	t.Helper()
	runtime.GC() // publish the allocations made so far to the profile
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, _ := runtime.MemProfile(nil, true)
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if _, fn, ok := strings.Cut(f.Function, "checkin/internal/"); ok {
				if (strings.HasPrefix(fn, "core.") || strings.HasPrefix(fn, "lsm.")) && fn != "lsm.hostAllocBytes" {
					host += r.AllocBytes
				}
				if fn == "lsm.makeRun" {
					runs += r.AllocBytes
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return host, runs
}

// logKeys logs a new version of every key in [0, n) and waits until they
// are durable.
func logKeys(e *sim.Engine, en *Engine, n int64) {
	runProc(e, func(p *sim.Proc) {
		for k := range n {
			update(en, p, k, 512)
		}
		en.Sync(p)
	})
}

// flushAll runs a flush epoch and any compaction that follows it to the
// end.
func flushAll(e *sim.Engine, en *Engine) {
	runProc(e, func(p *sim.Proc) { p.Wait(en.TriggerCheckpoint()) })
	drain(e, en)
}

// epochAllocBytes loads an LSM engine of strategy s whose memtable holds
// more than its n keys, then rewrites and flushes every key five times
// over, and returns the bytes the host allocated during the last flush
// epoch (see hostAllocBytes). The fourth flush fills level 0, whose
// compaction leaves the four flushed runs spare, so the last flush refills
// one; the earlier rounds warm up what an epoch reuses, the WAL records
// past each half's log included.
func epochAllocBytes(t *testing.T, s core.Strategy, n int64) int64 {
	t.Helper()
	e, en := newTestEngine(t, s, func(c *Config) {
		c.Keys = n
		c.MemtableEntries = int(n) + 1
	})
	if err := en.Load(); err != nil {
		t.Fatal(err)
	}
	for range 4 {
		logKeys(e, en, n)
		flushAll(e, en)
	}
	logKeys(e, en, n)
	before, _ := hostAllocBytes(t)
	flushAll(e, en)
	after, _ := hostAllocBytes(t)
	if en.st.Flushes != 5 || en.st.Compactions != 1 || len(en.spare) != 3 {
		t.Fatalf("%d flushes, %d compactions and %d spare runs, want 5, 1 and 3", en.st.Flushes, en.st.Compactions, len(en.spare))
	}
	return after - before
}

// TestCheckpointEpochAllocs: once warm, what a flush epoch allocates on
// the host does not grow with the records it flushes, beyond a fixed
// slack, on any strategy. The flush builds its run straight from the
// sorted memtable keys into a spare run's metadata, and its transfer
// streams through the base's command-sized buffers. A request list and a
// run-entry list built whole cost 48-56 B per record, 48-56 KB more here,
// and a fresh run's metadata 28 B per record.
func TestCheckpointEpochAllocs(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const n, slack = 1000, 4 << 10
	for _, s := range core.Strategies {
		t.Run(s.String(), func(t *testing.T) {
			small, large := epochAllocBytes(t, s, n), epochAllocBytes(t, s, 2*n)
			t.Logf("%d records: %d B, %d records: %d B", n, small, 2*n, large)
			if large > small+slack {
				t.Errorf("a flush of %d records allocates %d B on the host, of %d records %d B: more than %d B of growth",
					2*n, large, n, small, slack)
			}
		})
	}
}

// compactionAllocBytes loads an LSM engine of n keys whose memtable holds
// them all, then three times over flushes every key three times and forces
// a major compaction of the three flushed runs and the bottom run. It
// returns what the host allocated during the last compaction, in all and
// in new runs' metadata (see hostAllocBytes). The first compaction grows
// the merge buffer to n entries and leaves four runs spare; from the
// second on, the flushes and the compaction's output refill spares.
func compactionAllocBytes(t *testing.T, n int64) (host, runs int64) {
	t.Helper()
	e, en := newTestEngine(t, core.StrategyCheckIn, func(c *Config) {
		c.Keys = n
		c.MemtableEntries = int(n) + 1
	})
	if err := en.Load(); err != nil {
		t.Fatal(err)
	}
	for round := range 3 {
		for range 3 {
			logKeys(e, en, n)
			flushAll(e, en)
		}
		beforeHost, beforeRuns := hostAllocBytes(t)
		runProc(e, func(p *sim.Proc) {
			en.startCompaction(true)
			p.Wait(en.compactDone)
		})
		drain(e, en)
		afterHost, afterRuns := hostAllocBytes(t)
		if round == 2 {
			host, runs = afterHost-beforeHost, afterRuns-beforeRuns
		}
	}
	if en.st.Compactions != 3 || en.st.MajorCompactions != 3 || len(en.spare) != 4 {
		t.Fatalf("%d compactions (%d major) and %d spare runs, want 3 major and 4", en.st.Compactions, en.st.MajorCompactions, len(en.spare))
	}
	return host, runs
}

// TestCompactionEpochAllocs: once warm, a compaction allocates no run
// storage, its output refilling a run an earlier compaction deleted, and
// what it allocates on the host stays under a fixed slack whatever the
// number of keys it merges: the merge buffer is full grown and the inputs'
// reads stream through a fixed window. A fresh output run costs 28 B per
// key, 28-56 KB here; a merge buffer regrown to the summed input 24 B per
// input entry.
func TestCompactionEpochAllocs(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const slack = 4 << 10
	for _, n := range []int64{1000, 2000} {
		host, runs := compactionAllocBytes(t, n)
		t.Logf("%d keys: %d B on the host, %d B of it run metadata", n, host, runs)
		if runs != 0 || host > slack {
			t.Errorf("a warm compaction of %d keys allocates %d B on the host, %d B of it run metadata: want none of it run metadata and at most %d B",
				n, host, runs, slack)
		}
	}
}

// TestEpochsReturnCommandRecords: once warm, a flush epoch on every
// strategy and the compaction after it hand every device command they
// issue back to the device (the run writes and their flushes, the inputs'
// reads and trims, the WAL half's trim, the manifest write and flush), so
// its command-record pool holds as many records afterwards as before and
// none is left to the garbage collector. The pool is first primed with
// more records than an epoch keeps in flight, so a record an epoch keeps
// shows as a shortfall.
func TestEpochsReturnCommandRecords(t *testing.T) {
	const n = 1000
	for _, s := range core.Strategies {
		t.Run(s.String(), func(t *testing.T) {
			e, en := newTestEngine(t, s, func(c *Config) {
				c.Keys = n
				c.MemtableEntries = n + 1
			})
			if err := en.Load(); err != nil {
				t.Fatal(err)
			}
			dev := en.Device()
			for epoch := range 8 {
				logKeys(e, en, n)
				runProc(e, func(p *sim.Proc) {
					prime := make([]*sim.Future, 1024)
					for i := range prime {
						prime[i] = dev.Read(0, sector)
					}
					core.WaitDevice(p, dev, prime...)
				})
				before := dev.PooledCommands()
				flushAll(e, en)
				e.RunUntil(e.Now() + sim.Second) // let released commands finish
				if after := dev.PooledCommands(); epoch >= 4 && after != before {
					t.Errorf("flush epoch %d: %d pooled command records before, %d after", epoch, before, after)
				}
			}
			if en.st.Flushes != 8 || en.st.Compactions != 2 {
				t.Fatalf("%d flushes and %d compactions, want 8 and 2", en.st.Flushes, en.st.Compactions)
			}
		})
	}
}
