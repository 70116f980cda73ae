package sim

import (
	"fmt"
	"slices"
	"testing"
)

// fanBuilder joins timed inputs and wakes one waiter once all are done.
type fanBuilder interface {
	add(at VTime) // an input completing at at, submitted now
	arm(w Handler)
}

// afterAllFan is the reference: one future per input, each completed by its
// own AtHandler event, joined by AfterAll.
type afterAllFan struct {
	e  *Engine
	fs []*Future
}

func (r *afterAllFan) add(at VTime) {
	f := NewFuture(r.e)
	r.e.AtHandler(at, f)
	r.fs = append(r.fs, f)
}

func (r *afterAllFan) arm(w Handler) { AfterAll(r.e, r.fs).OnCompleteHandler(w) }

// fanInBuilder is the subject: a FanIn, each input under the sequence
// number its event would have drawn.
type fanInBuilder struct{ fan FanIn }

func newFanInBuilder(e *Engine) fanBuilder {
	b := &fanInBuilder{}
	b.fan.Init(e)
	return b
}

func (b *fanInBuilder) add(at VTime) { b.fan.Add(at, b.fan.eng.ReserveSeq()) }

func (b *fanInBuilder) arm(w Handler) { b.fan.Close().OnCompleteHandler(w) }

// fanTrace runs one scenario and returns the dispatch log. Inputs are
// submitted from an event at t=5; unrelated events land on the latest input
// instant, scheduled before the submission, between the first and second
// input, and after arming. Each unrelated event and the waiter schedule a
// same-instant follow-up, so the log pins the hop count, not just the time.
func fanTrace(ats []VTime, build func(e *Engine) fanBuilder) []string {
	e := NewEngine()
	var log []string
	note := func(name string) {
		log = append(log, fmt.Sprintf("%s@%d", name, e.Now()))
		e.Schedule(0, func() { log = append(log, fmt.Sprintf("%s'@%d", name, e.Now())) })
	}
	last := VTime(5)
	for _, at := range ats {
		last = max(last, at)
	}
	e.At(last, func() { note("pre") })
	e.At(5, func() {
		b := build(e)
		for i, at := range ats {
			b.add(at)
			if i == 0 {
				e.At(last, func() { note("mid") })
			}
		}
		b.arm(Func(func() { note("W") }))
		e.At(last, func() { note("post") })
	})
	e.Run()
	return log
}

// TestFanInMatchesAfterAll checks that a FanIn, which collapses its timed
// inputs into one injected completion, dispatches the waiter at exactly the
// position AfterAll over one AtHandler future per input does — ties and
// unrelated same-instant events included.
func TestFanInMatchesAfterAll(t *testing.T) {
	cases := [][]VTime{
		{},
		{10}, {5},
		{10, 20}, {20, 10}, {10, 10}, {5, 5},
		{10, 20, 20}, {20, 10, 20}, {20, 20, 20}, {30, 10, 20}, {10, 30, 30},
	}
	for _, ats := range cases {
		want := fanTrace(ats, func(e *Engine) fanBuilder { return &afterAllFan{e: e} })
		got := fanTrace(ats, newFanInBuilder)
		if !slices.Equal(got, want) {
			t.Errorf("inputs %v:\n got %v\nwant %v", ats, got, want)
		}
		if !slices.Contains(want, fmt.Sprintf("W@%d", max(slices.Max(append(ats, 5)), 5))) {
			t.Errorf("inputs %v: waiter not at the latest instant: %v", ats, want)
		}
	}
}

// TestFanInJoinAndDelayMatchAfterAll covers the rest of the FanIn: a joined
// future (done before the join or completed by its own event) and a delay
// after the join must dispatch as AfterAll over the inputs plus that
// future, followed by a same-instant hop and a timer of the delay — the
// construction they replace.
func TestFanInJoinAndDelayMatchAfterAll(t *testing.T) {
	const none = ^VTime(0) // no joined future
	type scenario struct {
		ats   []VTime
		join  VTime // joined future's completion instant; 5 = done before the join
		delay VTime
	}
	var cases []scenario
	for _, ats := range [][]VTime{{}, {10}, {10, 20}, {20, 20}} {
		for _, join := range []VTime{none, 5, 10, 20, 30} {
			for _, delay := range []VTime{0, 7} {
				cases = append(cases, scenario{ats, join, delay})
			}
		}
	}
	trace := func(sc scenario, subject bool) []string {
		e := NewEngine()
		var log []string
		note := func(name string) {
			log = append(log, fmt.Sprintf("%s@%d", name, e.Now()))
			e.Schedule(0, func() { log = append(log, fmt.Sprintf("%s'@%d", name, e.Now())) })
		}
		// Unrelated events land on the join instant and, one delay later,
		// on the completion instant.
		join := VTime(5)
		for _, at := range append(sc.ats, sc.join) {
			if at != none {
				join = max(join, at)
			}
		}
		unrelated := func(name string) {
			e.At(join, func() {
				note(name)
				e.Schedule(sc.delay, func() { note(name + "+d") })
			})
		}
		unrelated("pre")
		e.At(5, func() {
			var fan FanIn
			fan.Init(e)
			var fs []*Future
			for _, at := range sc.ats {
				if subject {
					fan.Add(at, e.ReserveSeq())
				} else {
					f := NewFuture(e)
					e.AtHandler(at, f)
					fs = append(fs, f)
				}
			}
			if sc.join != none {
				g := NewFuture(e)
				if sc.join == 5 {
					g.Complete()
				} else {
					e.AtHandler(sc.join, g)
				}
				fan.Await(g)
				fs = append(fs, g)
			}
			var out *Future
			if subject {
				fan.Delay(sc.delay)
				out = fan.Detach()
			} else if out = AfterAll(e, fs); sc.delay > 0 {
				all := out
				out = NewFuture(e)
				all.OnComplete(func() { e.Schedule(sc.delay, out.Complete) })
			}
			out.OnComplete(func() { note("W") })
			unrelated("post")
		})
		e.Run()
		return log
	}
	for _, sc := range cases {
		want, got := trace(sc, false), trace(sc, true)
		if !slices.Equal(got, want) {
			t.Errorf("%+v:\n got %v\nwant %v", sc, got, want)
		}
	}
}
