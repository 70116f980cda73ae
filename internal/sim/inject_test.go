package sim

import (
	"testing"
)

// deferredSource models a completion source that knows each completion's
// instant at submission: it reserves the completion's sequence number then,
// and injects the completion only later, as FanIn.Close does.
type deferredSource struct {
	eng  *Engine
	cmds []fakeCmd
}

type fakeCmd struct {
	at  VTime
	seq uint64
	fut *Future
}

// submit reserves a completion at absolute time at.
func (d *deferredSource) submit(at VTime) *Future {
	f := NewFuture(d.eng)
	d.cmds = append(d.cmds, fakeCmd{at: at, seq: d.eng.ReserveSeq(), fut: f})
	return f
}

// inject merges every submitted completion into the event queue.
func (d *deferredSource) inject() {
	for _, c := range d.cmds {
		d.eng.InjectCompletion(c.at, c.seq, c.fut)
	}
	d.cmds = d.cmds[:0]
}

// TestExternalSyncMergeOrder checks that a completion injected under a
// reserved sequence number dispatches in exactly the (at, seq) slot the
// AtHandler would have used: submitted before a same-time callback event
// and injected after it, the two paths must observe the identical
// interleaving (the waiter hop through Schedule(0) included).
func TestExternalSyncMergeOrder(t *testing.T) {
	run := func(external bool) ([]string, VTime) {
		e := NewEngine()
		d := &deferredSource{eng: e}
		var order []string
		var f *Future
		if external {
			f = d.submit(100) // seq drawn now, before the At below
		} else {
			f = NewFuture(e)
			e.AtHandler(100, f)
		}
		f.OnComplete(func() { order = append(order, "external") })
		e.At(100, func() { order = append(order, "internal") })
		d.inject()
		e.Run()
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

// TestExternalSyncSameInstantInjection exercises injecting a completion at
// the current clock: a submission completing at the current instant must
// dispatch in exactly the slot the AtHandler would use relative to
// now-queue events scheduled right after it, though it is injected after
// them.
func TestExternalSyncSameInstantInjection(t *testing.T) {
	run := func(external bool) []string {
		e := NewEngine()
		d := &deferredSource{eng: e}
		var order []string
		e.At(200, func() {
			var f *Future
			if external {
				f = d.submit(200)
			} else {
				f = NewFuture(e)
				e.AtHandler(200, f)
			}
			f.OnComplete(func() { order = append(order, "external") })
			e.Schedule(0, func() { order = append(order, "nowq") })
			d.inject()
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
// (a) plain AtHandler and (b) the reserve/inject path, injecting at the end
// of each submitting event, and requires the dispatch order be identical
// event for event.
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
		d := &deferredSource{eng: e}
		var order []string
		for _, s := range steps {
			s := s
			e.At(s.at, func() {
				var f *Future
				if external {
					f = d.submit(e.Now() + s.dur)
				} else {
					f = NewFuture(e)
					e.AtHandler(e.Now()+s.dur, f)
				}
				f.OnComplete(func() {
					order = append(order, s.name)
				})
				d.inject()
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

// TestInjectCompletionPastPanics locks in the causality check: a
// completion may not be injected before the current instant.
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
