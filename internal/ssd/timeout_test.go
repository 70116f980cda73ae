package ssd

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// timeoutRun is what one pass of the timeout scenario observed.
type timeoutRun struct {
	readDone  sim.VTime // read completion, relative to its submission
	fired     int       // times the read's completion callback ran
	trimWait  sim.VTime // queue-slot wait of the command queued behind it
	timeouts  uint64    // Stats.Timeouts delta over the scenario
	doneEarly bool      // read reported done at submission + probe
}

// runTimeoutScenario writes one page, then with QueueDepth 1 and the cache
// off submits a flash read followed by a deallocate of an unwritten range,
// under the given service budget. The read's back end (die read plus
// channel transfer) takes tens of microseconds; the deallocate's takes none.
// When probe is nonzero the run first stops at submission + probe to
// record whether the read already reports done.
func runTimeoutScenario(t *testing.T, budget, probe sim.VTime) timeoutRun {
	t.Helper()
	e, d := testDevice(t, func(c *Config) {
		c.QueueDepth = 1
		c.CacheBytes = 0
	})
	d.Write(0, 2048, AreaData)
	e.Run()
	d.cfg.CommandTimeout = budget

	var r timeoutRun
	pre := d.Stats()
	start := e.Now()
	rf := d.Read(0, 2048)
	rf.OnComplete(func() {
		r.fired++
		r.readDone = e.Now() - start
	})
	d.Deallocate(1<<20, 2048)
	if probe > 0 {
		e.RunUntil(start + probe)
		r.doneEarly = rf.Done()
	}
	e.Run()
	post := d.Stats()
	r.timeouts = post.Timeouts - pre.Timeouts
	r.trimWait = post.QueueWait.Sum - pre.QueueWait.Sum
	return r
}

// TestCommandTimeoutBackoff pins the timeout stage of a command: a command
// whose back end exceeds CommandTimeout completes exactly once, exactly
// timeoutBackoff after its back end finished, counts one timeout, and holds
// its queue slot through the backoff.
func TestCommandTimeoutBackoff(t *testing.T) {
	const backoff = timeoutBackoff
	ref := runTimeoutScenario(t, 0, 0) // budget disabled
	if ref.fired != 1 || ref.timeouts != 0 {
		t.Fatalf("without a budget: fired %d, timeouts %d; want 1, 0", ref.fired, ref.timeouts)
	}
	if ref.readDone < 51*sim.Microsecond {
		t.Fatalf("back end took %v; the scenario needs it to exceed the budget", ref.readDone)
	}

	got := runTimeoutScenario(t, sim.Microsecond, ref.readDone+backoff-1)
	if got.fired != 1 {
		t.Errorf("read completion fired %d times, want 1", got.fired)
	}
	if got.timeouts != 1 {
		t.Errorf("timeouts = %d, want 1 (only the read exceeds the budget)", got.timeouts)
	}
	if got.readDone != ref.readDone+backoff || got.doneEarly {
		t.Errorf("timed-out read completed at +%v (done early: %v), want back-end end +%v plus backoff %v",
			got.readDone, got.doneEarly, ref.readDone, backoff)
	}
	if got.trimWait != ref.trimWait+backoff {
		t.Errorf("queued command waited %v, want %v + backoff %v: the slot must be held through the backoff",
			got.trimWait, ref.trimWait, backoff)
	}
}
