package sim

import (
	"slices"
	"testing"
)

// countHandler is a pointer Handler for the allocation and ordering tests.
type countHandler struct {
	n   int
	log *[]int
	tag int
}

func (c *countHandler) Fire() {
	c.n++
	if c.log != nil {
		*c.log = append(*c.log, c.tag)
	}
}

// TestSchedulingAllocs guards the kernel's steady-state allocation budget:
// once the event heap has grown to workload capacity, scheduling and
// dispatching events — the closure form (At/Schedule) and the Handler form
// (AtHandler, which completes a *Future or fires any pointer Handler) — must
// not allocate, nor may events queued in a delay lane or an explicit lane
// once the lane's ring has grown, and neither may registering a pointer
// Handler on a future
// (OnCompleteHandler, also as a future's second and third waiter) or a
// semaphore (AcquireAsyncHandler). The nand layer
// completes every flash operation through AtHandler and the ssd layer drives
// every command through all three, so a regression here taxes every
// simulated I/O.
func TestSchedulingAllocs(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	h := &countHandler{}
	for i := 0; i < 256; i++ {
		e.Schedule(VTime(i), noop)
	}
	e.Run()

	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			e.Schedule(VTime(i+1), noop)
		}
		e.Run()
	}); n != 0 {
		t.Fatalf("steady-state Schedule/dispatch allocates %.2f/op, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			e.AtHandler(e.Now()+VTime(i), h)
		}
		e.Run()
	}); n != 0 {
		t.Fatalf("steady-state AtHandler/dispatch allocates %.2f/op, want 0", n)
	}

	// Lanes: per round, 16 timers into a delay lane and 5 in-order events
	// into an explicit lane, while half a delay's worth of time passes, so
	// both lanes stay in flight and their heads dispatch against each other.
	e.DelayLane(10)
	lane := e.NewLane()
	var horizon VTime
	laneRound := func() {
		for i := 0; i < 16; i++ {
			e.AtHandler(e.Now()+10, h)
		}
		for i := 0; i < 5; i++ {
			horizon = max(horizon, e.Now()+5) + 1
			e.AtLane(lane, horizon, h)
		}
		e.RunUntil(e.Now() + 5)
	}
	for i := 0; i < 4; i++ {
		laneRound() // grow the rings
	}
	if n := testing.AllocsPerRun(100, laneRound); n != 0 {
		t.Fatalf("steady-state lane push/dispatch allocates %.2f/op, want 0", n)
	}
	if e.lanes[1].n == 0 || e.lanes[2].n == 0 || len(e.events) != 0 {
		t.Fatalf("lanes hold %d and %d events, heap %d: want both lanes in flight, heap empty",
			e.lanes[1].n, e.lanes[2].n, len(e.events))
	}
	e.Run()

	fut := NewFuture(e)
	if n := testing.AllocsPerRun(100, func() {
		*fut = Future{eng: e}
		fut.OnCompleteHandler(h)
		e.AtHandler(e.Now()+1, fut)
		e.Run()
	}); n != 0 {
		t.Fatalf("OnCompleteHandler + completion allocates %.2f/op, want 0", n)
	}

	// A future with several waiters keeps the later ones in a list that
	// Complete hands back to the engine for the next such future.
	var order []int
	hs := []*countHandler{{log: &order, tag: 1}, {log: &order, tag: 2}, {log: &order, tag: 3}}
	if n := testing.AllocsPerRun(100, func() {
		*fut = Future{eng: e}
		for _, w := range hs {
			fut.OnCompleteHandler(w)
		}
		e.AtHandler(e.Now()+1, fut)
		e.Run()
	}); n != 0 {
		t.Fatalf("three waiters + completion allocates %.2f/op, want 0", n)
	}
	if len(order) != 3*101 || !slices.Equal(order[len(order)-3:], []int{1, 2, 3}) {
		t.Fatalf("waiters woke %d times, last round %v; want 303, FIFO [1 2 3]", len(order), order[max(0, len(order)-3):])
	}

	s := NewSemaphore(e, 1)
	if n := testing.AllocsPerRun(100, func() {
		s.AcquireAsyncHandler(h) // granted at once
		s.AcquireAsyncHandler(h) // queued until the release
		e.Run()
		s.Release()
		e.Run()
		s.Release()
	}); n != 0 {
		t.Fatalf("AcquireAsyncHandler allocates %.2f/op, want 0", n)
	}
	if h.n == 0 {
		t.Fatal("handler never fired")
	}

	if n := testing.AllocsPerRun(100, func() {
		f := CompletedFuture(e)
		if !f.Done() {
			t.Fatal("shared completed future not done")
		}
	}); n != 0 {
		t.Fatalf("CompletedFuture allocates %.2f/op, want 0", n)
	}
}

// TestAtCompleteOrder locks in that a future scheduled with AtHandler is
// observably identical to At(t, f.Complete): the future flips to done in
// strict (time, issue-order) sequence, and its waiters are deferred behind
// already-queued same-time events (Complete schedules them as fresh events)
// — the determinism contract every FTL latency measurement rests on. A
// plain pointer Handler at the same instant interleaves by issue order too.
func TestAtCompleteOrder(t *testing.T) {
	e := NewEngine()
	var log []int
	f1 := NewFuture(e)
	f1.OnComplete(func() { log = append(log, 3) })
	f2 := NewFuture(e)
	f2.OnComplete(func() { log = append(log, 4) })
	e.At(5, func() { log = append(log, 0) })
	e.AtHandler(5, f1)
	e.At(5, func() {
		if !f1.Done() {
			t.Error("f1 not done by the same-time event queued after it")
		}
		log = append(log, 1)
	})
	e.AtHandler(5, &countHandler{log: &log, tag: 2})
	e.AtHandler(7, f2)
	e.Run()
	want := []int{0, 1, 2, 3, 4}
	if len(log) != len(want) {
		t.Fatalf("got %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("got %v, want %v", log, want)
		}
	}
	if !f1.Done() || !f2.Done() {
		t.Fatal("AtHandler did not complete its futures")
	}
}
