package sim

import (
	"testing"
)

// fakeDomain models an external completion source: commands are queued at
// submission with a reserved seq and a precomputed completion time, and
// merged back only when the kernel asks for a sync.
type fakeDomain struct {
	eng   *Engine
	cmds  []fakeCmd
	syncs int
}

type fakeCmd struct {
	at  VTime
	seq uint64
	fut *Future
}

func newFakeDomain(e *Engine) *fakeDomain {
	d := &fakeDomain{eng: e}
	e.SetExternalSync(d.sync)
	return d
}

// submit queues a completion at absolute time at and lowers the horizon to
// the (sound) bound lo.
func (d *fakeDomain) submit(at, lo VTime) *Future {
	f := NewFuture(d.eng)
	d.cmds = append(d.cmds, fakeCmd{at: at, seq: d.eng.ReserveSeq(), fut: f})
	d.eng.LowerHorizon(lo)
	return f
}

func (d *fakeDomain) sync() {
	d.syncs++
	for _, c := range d.cmds {
		d.eng.InjectCompletion(c.at, c.seq, c.fut)
	}
	d.cmds = d.cmds[:0]
}

// TestExternalSyncMergeOrder checks that an injected completion dispatches
// in exactly the (at, seq) slot the sequential AtHandler would have used:
// submitted before a same-time callback event, the two paths must observe
// the identical interleaving (the waiter hop through Schedule(0) included).
func TestExternalSyncMergeOrder(t *testing.T) {
	run := func(external bool) ([]string, VTime) {
		e := NewEngine()
		var d *fakeDomain
		if external {
			d = newFakeDomain(e)
		}
		var order []string
		var f *Future
		if external {
			f = d.submit(100, 50) // seq drawn now, before the At below
		} else {
			f = NewFuture(e)
			e.AtHandler(100, f)
		}
		f.OnComplete(func() { order = append(order, "external") })
		e.At(100, func() { order = append(order, "internal") })
		e.Run()
		if external && d.syncs == 0 {
			t.Fatalf("external source was never synced")
		}
		return order, e.Now()
	}
	seq, seqNow := run(false)
	ext, extNow := run(true)
	if len(seq) != 2 || len(ext) != 2 || seq[0] != ext[0] || seq[1] != ext[1] {
		t.Fatalf("dispatch order diverges: sequential %v, external %v", seq, ext)
	}
	if seqNow != extNow || extNow != 100 {
		t.Fatalf("clocks diverge: sequential %v, external %v, want 100", seqNow, extNow)
	}
}

// TestExternalSyncHorizonGate checks events strictly before the horizon run
// without forcing a sync, and the sync fires before the clock reaches it.
func TestExternalSyncHorizonGate(t *testing.T) {
	e := NewEngine()
	d := newFakeDomain(e)

	f := d.submit(1000, 500)
	var doneAt VTime
	f.OnComplete(func() { doneAt = e.Now() })

	syncsAt100 := -1
	e.At(100, func() { syncsAt100 = d.syncs })

	e.Run()
	if syncsAt100 != 0 {
		t.Fatalf("sync ran before an event below the horizon (syncs=%d)", syncsAt100)
	}
	if doneAt != 1000 {
		t.Fatalf("external completion at %v, want 1000", doneAt)
	}
}

// TestExternalSyncRunUntilDeadline checks the deadline interplay: a horizon
// beyond the deadline leaves the source un-synced and the clock parks at the
// deadline; a later RunUntil past the horizon merges and dispatches.
func TestExternalSyncRunUntilDeadline(t *testing.T) {
	e := NewEngine()
	d := newFakeDomain(e)

	f := d.submit(1000, 800)
	var doneAt VTime
	f.OnComplete(func() { doneAt = e.Now() })

	e.RunUntil(700)
	if e.Now() != 700 {
		t.Fatalf("clock = %v, want 700", e.Now())
	}
	if d.syncs != 0 {
		t.Fatalf("source synced %d times before its horizon", d.syncs)
	}
	if f.Done() {
		t.Fatalf("future completed before its time")
	}

	e.RunUntil(2000)
	if !f.Done() || doneAt != 1000 {
		t.Fatalf("future done=%v at %v, want done at 1000", f.Done(), doneAt)
	}
	if e.Now() != 2000 {
		t.Fatalf("clock = %v, want 2000", e.Now())
	}
}

// TestExternalSyncSameInstantInjection exercises injecting a completion at
// the current clock: a zero-lookahead submission at the current instant must
// dispatch in exactly the slot the sequential AtHandler would use relative
// to now-queue events scheduled right after it.
func TestExternalSyncSameInstantInjection(t *testing.T) {
	run := func(external bool) []string {
		e := NewEngine()
		var d *fakeDomain
		if external {
			d = newFakeDomain(e)
		}
		var order []string
		e.At(200, func() {
			var f *Future
			if external {
				f = d.submit(200, 200)
			} else {
				f = NewFuture(e)
				e.AtHandler(200, f)
			}
			f.OnComplete(func() { order = append(order, "external") })
			e.Schedule(0, func() { order = append(order, "nowq") })
		})
		e.Run()
		return order
	}
	seq, ext := run(false), run(true)
	if len(seq) != 2 || len(ext) != 2 || seq[0] != ext[0] || seq[1] != ext[1] {
		t.Fatalf("dispatch order diverges: sequential %v, external %v", seq, ext)
	}
}

// TestExternalSyncIdenticalToSequential replays a mixed workload through
// (a) plain AtHandler and (b) the reserve/inject path, and requires the
// dispatch order be identical event for event.
func TestExternalSyncIdenticalToSequential(t *testing.T) {
	type step struct {
		at   VTime // submission time
		dur  VTime // completion delay
		name string
	}
	steps := []step{
		{0, 300, "a"}, {0, 100, "b"}, {50, 50, "c"}, {50, 250, "d"},
		{100, 0, "e"}, {100, 200, "f"}, {120, 180, "g"},
	}

	run := func(external bool) []string {
		e := NewEngine()
		var d *fakeDomain
		if external {
			d = newFakeDomain(e)
		}
		var order []string
		for _, s := range steps {
			s := s
			e.At(s.at, func() {
				var f *Future
				if external {
					f = d.submit(e.Now()+s.dur, e.Now()+s.dur)
				} else {
					f = NewFuture(e)
					e.AtHandler(e.Now()+s.dur, f)
				}
				f.OnComplete(func() {
					order = append(order, s.name)
				})
			})
		}
		e.Run()
		return order
	}

	seq := run(false)
	ext := run(true)
	if len(seq) != len(steps) {
		t.Fatalf("sequential run completed %d of %d", len(seq), len(steps))
	}
	for i := range seq {
		if seq[i] != ext[i] {
			t.Fatalf("dispatch order diverges at %d: sequential %v, external %v", i, seq, ext)
		}
	}
}

// TestExternalSyncRestoreResetsHorizon checks that Restore drops the
// horizon back to idle so an abandoned timeline's pending commands cannot
// force syncs on the restored one.
func TestExternalSyncRestoreResetsHorizon(t *testing.T) {
	e := NewEngine()
	d := newFakeDomain(e)

	st := e.State()
	d.submit(1000, 500)
	// Simulate the source discarding on restore, as the contract requires.
	d.cmds = d.cmds[:0]
	e.Restore(st)

	ran := false
	e.At(600, func() { ran = true }) // beyond the stale horizon
	e.Run()
	if !ran {
		t.Fatalf("event beyond a stale horizon did not run")
	}
	if d.syncs != 0 {
		t.Fatalf("restored engine synced a discarded source %d times", d.syncs)
	}
}

// TestInjectCompletionPastPanics locks in the safe-horizon invariant check.
func TestInjectCompletionPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatalf("InjectCompletion in the past did not panic")
		}
	}()
	e.InjectCompletion(50, 1, NewFuture(e))
}
