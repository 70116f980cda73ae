package core

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// TestCheckpointCutSnapshotVisibility is the minimized regression for a
// recovery bug surfaced by the crash injector: a crash at the
// journal-commit site while a checkpoint cut was in flight (the ckpt-cut
// window) recovered stale versions. CutForCheckpoint rotates the active
// JMT synchronously, then yields waiting for the old half's tail flush;
// the engine used to publish ckptSnapshot only after the cut returned, so
// during those waits the old half's committed logs were invisible to both
// Get() and recovery — a window in which a real crash would lose acked
// writes. The snapshot must be published before the cut begins.
func TestCheckpointCutSnapshotVisibility(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()

	committed := make([]int64, en.cfg.Keys)
	for k := range committed {
		committed[k] = 1 // Load leaves every key durable at version 1
	}
	en.SetCommitHook(func(key, version int64) {
		if version > committed[key] {
			committed[key] = version
		}
	})

	// Writers keep group commits in flight so the cut has a batch to wait
	// on — that wait is the vulnerable window.
	for w := 0; w < 8; w++ {
		w := w
		e.Go("writer", func(p *sim.Proc) {
			for i := int64(0); i < 200; i++ {
				update(en, p, (int64(w)*200+i)%en.cfg.Keys, 512)
			}
		})
	}
	observedWindow := false
	validate := func() {
		recovered := en.Recovery().Recovered
		for k := range committed {
			if recovered[k] != committed[k] {
				t.Fatalf("during checkpoint cut: key %d recovered v%d, committed v%d (site ckpt-cut window)",
					k, recovered[k], committed[k])
			}
		}
	}
	for step := 0; step < 20_000 && e.LiveProcs() > 0; step++ {
		e.RunUntil(e.Now() + 20*sim.Microsecond)
		if en.jr.cutting {
			observedWindow = true
			validate()
		}
		if step%500 == 100 && !en.CheckpointRunning() {
			en.TriggerCheckpoint()
		}
	}
	if !observedWindow {
		t.Fatal("test never observed the checkpoint-cut window; tune the workload")
	}
	// After the run drains, recovery still matches the committed prefix.
	for guard := 0; (en.CheckpointRunning() || e.LiveProcs() > 0) && guard < 100_000; guard++ {
		e.RunUntil(e.Now() + sim.Millisecond)
	}
	validate()
}
