package ftl_test

import (
	"testing"
	"time"

	"github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/workload"
)

// TestJournalTrimsCoalesce runs a journal engine through many checkpoints
// that the journal's fill triggers, each trimming the half it drains from
// the half's start over a length that varies by a group commit or so. A
// trim drops the earlier extents it covers and merges those that overlap
// it over units no one has written since, so the recovery log holds one
// extent per half however many checkpoints ran, where it held one per
// checkpoint. The test keeps every extent the log ever recorded and
// checks, as each checkpoint starts and after the last, that the SPOR
// rebuild over the coalesced log equals the rebuild over that full
// history.
func TestJournalTrimsCoalesce(t *testing.T) {
	const bound = 2 // one extent per journal half
	cfg := checkin.DefaultConfig()
	cfg.Strategy = checkin.StrategyCheckIn
	cfg.Channels, cfg.DiesPerChannel, cfg.PlanesPerDie = 2, 2, 1
	cfg.BlocksPerPlane, cfg.PagesPerBlock = 24, 32
	cfg.Keys = 4000
	cfg.Records = checkin.FixedRecords(512)
	cfg.JournalHalfMB = 1
	cfg.DataCacheMB = 1
	cfg.CheckpointInterval = time.Hour // the journal's fill triggers
	db, err := checkin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(); err != nil {
		t.Fatal(err)
	}
	f := db.Device().FTL()
	history := f.Trims()[:0:0] // every extent ever recorded, oldest first
	most := 0
	check := func() {
		trims := f.Trims()
		if len(trims) == 0 {
			return
		}
		if last := trims[len(trims)-1]; len(history) == 0 || history[len(history)-1] != last {
			history = append(history, last)
		}
		most = max(most, len(trims))
		got, want := *f.VerifySPOR(), *f.VerifySPORWith(history)
		want.TrimsReplayed = got.TrimsReplayed
		if got != want {
			t.Fatalf("after %d trims: SPOR over %d coalesced extents %+v, over all of them %+v", len(history), len(trims), got, want)
		}
	}
	core.CheckpointTap = func(kind string, _ []ssd.RemapEntry) {
		if kind == "" {
			check() // the previous checkpoint's trim has landed
		}
	}
	t.Cleanup(func() { core.CheckpointTap = nil })
	spec := checkin.RunSpec{Threads: 16, TotalQueries: 100_000, Mix: workload.Mix{ReadPct: 20, UpdatePct: 80}}
	if _, err := db.Run(spec); err != nil {
		t.Fatal(err)
	}
	check()
	t.Logf("%d checkpoints, at most %d trim extents held", len(history), most)
	if len(history) < 30 {
		t.Fatalf("%d trims, want a run of 30 checkpoints or more", len(history))
	}
	if most > bound {
		t.Errorf("the recovery log held %d trim extents, want at most %d", most, bound)
	}
}
