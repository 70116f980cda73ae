package core

import (
	"sort"
	"testing"
	"testing/quick"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// layoutInvariants checks the journal-placement invariants over every
// committed entry of a table:
//  1. entries never overlap,
//  2. every entry lies inside its half,
//  3. aligned mode: FULL entries are unit-aligned with unit-multiple
//     stored sizes; merged entries never straddle a unit boundary,
//  4. stored size covers the payload (minus inline header bookkeeping in
//     conventional mode, where stored includes the header).
func layoutInvariants(t *testing.T, j *journal, entries []*jmtEntry, half int) {
	t.Helper()
	start := j.layout.JournalStart(half)
	end := start + j.layout.JournalHalfBytes
	type span struct{ lo, hi int64 }
	var spans []span
	for _, e := range entries {
		if !e.committed {
			continue
		}
		lo := e.off
		var hi int64
		if j.aligned {
			hi = e.off + int64(e.stored)
			if e.typ == LogFull {
				if e.off%j.unit != 0 {
					t.Fatalf("FULL entry at unaligned offset %d", e.off)
				}
				if int64(e.stored)%j.unit != 0 {
					t.Fatalf("FULL entry stored %d not a unit multiple", e.stored)
				}
			} else {
				if e.off/j.unit != (e.off+int64(e.stored)-1)/j.unit {
					t.Fatalf("merged entry [%d,%d) straddles a unit boundary", e.off, hi)
				}
			}
			if int64(e.stored) < int64(e.payload) {
				// compression may shrink large payloads
				if int64(e.payload) <= j.unit {
					t.Fatalf("stored %d < payload %d without compression", e.stored, e.payload)
				}
			}
		} else {
			// conventional: off points at the payload, after the header
			lo = e.off - j.header
			hi = lo + int64(e.stored)
			if int64(e.stored) != j.header+int64(e.payload) {
				t.Fatalf("conventional stored %d != header %d + payload %d", e.stored, j.header, e.payload)
			}
		}
		if lo < start || hi > end {
			t.Fatalf("entry [%d,%d) outside half [%d,%d)", lo, hi, start, end)
		}
		spans = append(spans, span{lo, hi})
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("entries overlap: [%d,%d) and [%d,%d)",
				spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
}

func TestJournalLayoutPropertyConventional(t *testing.T) {
	journalLayoutProperty(t, false)
}

func TestJournalLayoutPropertyAligned(t *testing.T) {
	journalLayoutProperty(t, true)
}

func journalLayoutProperty(t *testing.T, aligned bool) {
	err := quick.Check(func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 200 {
			sizes = sizes[:200]
		}
		e, dev := newStack(t, 512)
		l, err := NewLayout(dev.LogicalBytes(), 4096, workload.FixedSizer{Size: 4096}, 4<<20, 512)
		if err != nil {
			t.Fatal(err)
		}
		j := newJournal(e, dev, l, aligned, 16, 0.85)
		if aligned {
			j.header = 0
		}
		for i, s := range sizes {
			payload := int(s)%4096 + 1
			j.Append(int64(i%4096), int64(i), payload)
			if i%17 == 0 {
				e.Run() // let some batches commit mid-stream
			}
		}
		e.Run()
		layoutInvariants(t, j, j.JMT().Entries(), j.active)
		return !t.Failed()
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestRandomCrashRecoveryProperty(t *testing.T) {
	// Property: crash at an arbitrary point in a run — mid-commit,
	// mid-checkpoint, right after a trim — and the recovery protocol
	// reconstructs exactly the durable versions.
	err := quick.Check(func(seed int64, stopAfter uint16) bool {
		_, en := newTestEngine(t, StrategyCheckIn, func(c *Config) {
			c.Seed = seed&0x7fffffff + 1
			c.CheckpointInterval = 20 * sim.Millisecond
		})
		en.Load()
		// run a truncated workload: crash after stopAfter queries
		queries := int64(stopAfter)%4000 + 100
		if _, err := en.Run(RunSpec{Threads: 4, TotalQueries: queries,
			Mix: workload.WorkloadWO, Zipfian: true}); err != nil {
			t.Fatal(err)
		}
		rep := simulateRecovery(en)
		for k, v := range rep.Durable {
			if rep.Recovered[k] != v {
				t.Logf("seed %d, queries %d: key %d recovered v%d durable v%d",
					seed, queries, k, rep.Recovered[k], v)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 15})
	if err != nil {
		t.Error(err)
	}
}
