package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/workload"
)

// ckptCmd is one command a checkpoint transfer issued: its kind and its
// requests (see CheckpointTap).
type ckptCmd struct {
	kind string
	reqs []ssd.RemapEntry
}

// tapEpochs sets CheckpointTap for the test: begin runs as each transfer
// starts, and every issued command is recorded, copied, in the epoch it
// belongs to. It returns the recorded epochs.
func tapEpochs(t *testing.T, begin func()) *[][]ckptCmd {
	t.Helper()
	var got [][]ckptCmd
	CheckpointTap = func(kind string, reqs []ssd.RemapEntry) {
		if kind == "" {
			got = append(got, nil)
			begin()
			return
		}
		e := &got[len(got)-1]
		*e = append(*e, ckptCmd{kind, slices.Clone(reqs)})
	}
	t.Cleanup(func() { CheckpointTap = nil })
	return &got
}

// compareEpochs fails t at the first command or request where an epoch's
// recorded commands differ from the reference, and returns the most
// commands one epoch issued.
func compareEpochs(t *testing.T, got, want [][]ckptCmd) int {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d transfers recorded, %d references", len(got), len(want))
	}
	most := 0
	for e := range want {
		most = max(most, len(want[e]))
		if len(got[e]) != len(want[e]) {
			t.Fatalf("epoch %d: %d commands, want %d", e, len(got[e]), len(want[e]))
		}
		for c, w := range want[e] {
			g := got[e][c]
			if g.kind != w.kind || len(g.reqs) != len(w.reqs) {
				t.Fatalf("epoch %d command %d: %s of %d requests, want %s of %d", e, c, g.kind, len(g.reqs), w.kind, len(w.reqs))
			}
			for i := range w.reqs {
				if g.reqs[i] != w.reqs[i] {
					t.Fatalf("epoch %d command %d request %d: %+v, want %+v", e, c, i, g.reqs[i], w.reqs[i])
				}
			}
		}
	}
	return most
}

// batches splits reqs into commands of kind, at most n requests each.
func batches(kind string, reqs []ssd.RemapEntry, n int) []ckptCmd {
	var out []ckptCmd
	for c := range slices.Chunk(reqs, n) {
		out = append(out, ckptCmd{kind, c})
	}
	return out
}

// referenceCommands builds the commands a checkpoint of the cut table snap
// issues under en's strategy from the whole table at once: the request
// list first (every entry, OLD ones included, for a remap; the live ones
// otherwise), then split into commands.
func referenceCommands(en *Engine, snap *JMT) []ckptCmd {
	var all, live []ssd.RemapEntry
	aligned := en.cfg.Strategy.SectorAligned()
	unit := int64(en.dev.FTL().UnitSize())
	for _, e := range snap.Entries() {
		n := roundUp(int64(e.payload), unit)
		if aligned && e.typ == LogFull {
			n = int64(e.stored)
		}
		all = append(all, ssd.RemapEntry{Src: e.off, Dst: e.targetOff, Len: n, Old: e.old})
		if !e.old {
			live = append(live, ssd.RemapEntry{Src: e.off, Dst: e.targetOff, Len: int64(e.payload)})
		}
	}
	switch s := en.cfg.Strategy; {
	case s == StrategyBaseline:
		var out []ckptCmd
		for w := range slices.Chunk(live, ckptReadWindow) {
			for _, r := range w {
				out = append(out, ckptCmd{"read", []ssd.RemapEntry{{Src: r.Src, Len: r.Len}}})
			}
			for _, r := range w {
				out = append(out, ckptCmd{"write", []ssd.RemapEntry{{Dst: r.Dst, Len: r.Len}}})
			}
		}
		return out
	case s.UsesRemap():
		return batches("remap", all, ckptCmdBatch)
	case s == StrategyISCA:
		return batches("cow", live, 1)
	default:
		return batches("multicow", live, multiCoWBatch)
	}
}

// TestCheckpointRequestStream records every command the journal engine's
// checkpoints issue under each strategy while closed-loop clients keep
// writing, and compares it request by request with a reference list the
// test builds from the cut table as each transfer starts. The transfers
// pull their requests a command at a time as the checkpoint runs, so a
// source that read state the concurrent writes change would differ here.
// The run must issue epochs spanning several commands (Baseline: several
// read windows), so the batch boundaries are checked too.
func TestCheckpointRequestStream(t *testing.T) {
	for _, s := range Strategies {
		t.Run(s.String(), func(t *testing.T) {
			_, en := newTestEngine(t, s, func(c *Config) {
				c.Keys = 6000
				c.CheckpointInterval = sim.Second // the soft fill fraction triggers
			})
			if err := en.Load(); err != nil {
				t.Fatal(err)
			}
			var want [][]ckptCmd
			got := tapEpochs(t, func() {
				want = append(want, referenceCommands(en, en.ckptSnapshot))
			})
			spec := RunSpec{Threads: 16, TotalQueries: 30_000, Mix: workload.Mix{ReadPct: 30, UpdatePct: 70}}
			if _, err := en.Run(spec); err != nil {
				t.Fatal(err)
			}
			most := compareEpochs(t, *got, want)
			need := 3
			if s == StrategyBaseline || s == StrategyISCA {
				need = 2 * ckptReadWindow // two read windows / CoW windows
			}
			if most < need {
				t.Errorf("at most %d commands in one of %d epochs, want an epoch of %d or more", most, len(want), need)
			}
		})
	}
}

// hostAllocBytes returns the bytes the memory profile has recorded so far
// as allocated by the host engines: records whose innermost frame in this
// module's internal packages lies in core or lsm. The kernel's, the
// device's and the FTL's own allocations (event queues, command records,
// fan-in futures, slot-table chunks, which a device makes per request)
// stay out, as does this function's own record buffer. Callers set
// runtime.MemProfileRate to 1 first.
func hostAllocBytes(t *testing.T) int64 {
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
	var sum int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if _, fn, ok := strings.Cut(f.Function, "checkin/internal/"); ok {
				host := strings.HasPrefix(fn, "core.") || strings.HasPrefix(fn, "lsm.")
				if host && !strings.HasSuffix(fn, ".hostAllocBytes") {
					sum += r.AllocBytes
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return sum
}

// epochAllocBytes loads a journal engine of strategy s, then rewrites
// keys [0, n) and checkpoints them, three times over, and returns the
// bytes the host allocated during the last checkpoint epoch (see
// hostAllocBytes). The earlier rounds warm up the tables an epoch reuses.
func epochAllocBytes(t *testing.T, s Strategy, n int64) int64 {
	t.Helper()
	e, en := newTestEngine(t, s, func(c *Config) { c.Keys = n })
	if err := en.Load(); err != nil {
		t.Fatal(err)
	}
	var before, after int64
	for range 3 {
		runProc(e, func(p *sim.Proc) {
			for k := range n {
				update(en, p, k, 512)
			}
			en.Sync(p)
		})
		before = hostAllocBytes(t)
		runProc(e, func(p *sim.Proc) { p.Wait(en.TriggerCheckpoint()) })
		after = hostAllocBytes(t)
	}
	return after - before
}

// TestCheckpointEpochAllocs: once warm, what a checkpoint epoch allocates
// on the host does not grow with the entries it checkpoints, beyond a
// fixed slack, on any strategy. The transfers stream through the base's
// command-sized buffers, so doubling the entries adds commands, not
// buffer bytes. A request list built whole costs 24-32 B per entry, 48-64
// KB more here.
func TestCheckpointEpochAllocs(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const n, slack = 2000, 4 << 10
	for _, s := range Strategies {
		t.Run(s.String(), func(t *testing.T) {
			small, large := epochAllocBytes(t, s, n), epochAllocBytes(t, s, 2*n)
			t.Logf("%d entries: %d B, %d entries: %d B", n, small, 2*n, large)
			if large > small+slack {
				t.Errorf("a checkpoint of %d entries allocates %d B on the host, of %d entries %d B: more than %d B of growth",
					2*n, large, n, small, slack)
			}
		})
	}
}

// TestEpochsReturnCommandRecords: a warm checkpoint epoch on every
// strategy, and a recovery scan after it, hand every device command they
// issue back to the device, so its command-record pool holds as many
// records afterwards as before and none is left to the garbage collector.
// The pool is first primed with more records than an epoch keeps in
// flight, so a record an epoch keeps shows as a shortfall.
func TestEpochsReturnCommandRecords(t *testing.T) {
	const n = 2000
	for _, s := range Strategies {
		t.Run(s.String(), func(t *testing.T) {
			e, en := newTestEngine(t, s, func(c *Config) { c.Keys = n })
			if err := en.Load(); err != nil {
				t.Fatal(err)
			}
			dev := en.Device()
			// logPrimed logs every key, then primes the pool with more
			// records than any strategy keeps in flight: Baseline a
			// window of reads, then one of writes.
			logPrimed := func() int {
				runProc(e, func(p *sim.Proc) {
					for k := range int64(n) {
						update(en, p, k, 512)
					}
					en.Sync(p)
					prime := make([]*sim.Future, 4*ckptReadWindow)
					for i := range prime {
						prime[i] = dev.Read(0, hostSector)
					}
					WaitDevice(p, dev, prime...)
				})
				return dev.PooledCommands()
			}
			for epoch := range 2 {
				before := logPrimed()
				runProc(e, func(p *sim.Proc) { p.Wait(en.TriggerCheckpoint()) })
				e.RunUntil(e.Now() + sim.Second) // let released commands finish
				if after := dev.PooledCommands(); epoch > 0 && after != before {
					t.Errorf("warm checkpoint epoch: %d pooled command records before, %d after", before, after)
				}
			}
			before := logPrimed()
			rep := en.Recovery()
			TimeRecovery(e, dev, rep)
			if after := dev.PooledCommands(); len(rep.Reads) < 2 || after != before {
				t.Errorf("recovery scan of %d reads: %d pooled command records before, %d after", len(rep.Reads), before, after)
			}
		})
	}
}

// String names a recorded command in failure messages.
func (c ckptCmd) String() string { return fmt.Sprintf("%s%v", c.kind, c.reqs) }
