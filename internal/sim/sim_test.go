package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestVTimeString(t *testing.T) {
	cases := []struct {
		in   VTime
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("VTime(%d).String() = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestVTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (5 * Microsecond).Micros(); got != 5.0 {
		t.Errorf("Micros() = %v, want 5", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
	if e.Executed() != 3 {
		t.Errorf("Executed() = %d, want 3", e.Executed())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := make(map[VTime]bool)
	for _, at := range []VTime{10, 20, 30, 40} {
		at := at
		e.At(at, func() { ran[at] = true })
	}
	e.RunUntil(25)
	if !ran[10] || !ran[20] || ran[30] || ran[40] {
		t.Fatalf("RunUntil(25) ran wrong set: %v", ran)
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %v, want 25 (clock advanced to deadline)", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if !ran[30] || !ran[40] {
		t.Error("resumed Run did not execute remaining events")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(VTime(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("Stop did not halt the run: executed %d events", count)
	}

	// A stopped RunUntil leaves the clock at the stopping event: advancing
	// it to the deadline would pass the event still queued at 20, which the
	// next run would then dispatch with the clock going backwards.
	e = NewEngine()
	var seen []VTime
	e.At(10, func() { seen = append(seen, e.Now()); e.Stop() })
	e.At(20, func() { seen = append(seen, e.Now()) })
	e.RunUntil(100)
	if e.Now() != 10 {
		t.Errorf("Now() = %v after a RunUntil(100) stopped at 10, want 10", e.Now())
	}
	e.RunUntil(100)
	if len(seen) != 2 || seen[1] != 20 || e.Now() != 100 {
		t.Errorf("resumed run saw %v and ended at %v, want [10ns 20ns] ending at 100ns", seen, e.Now())
	}
}

// TestStopWhenIdle: a phase ends at its last process's exit even though a
// self-re-arming tick keeps the queue non-empty; the tick stays queued for
// the next run. Armed with no process live, the rule stops the run at
// once, and a queue that runs dry under a blocked process fails RunToIdle.
func TestStopWhenIdle(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(10, tick) }
	e.Schedule(10, tick)
	for _, d := range []VTime{25, 47} {
		e.Go("worker", func(p *Proc) { p.Sleep(d) })
	}
	if err := e.RunToIdle(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 47 || e.Pending() != 1 {
		t.Fatalf("phase ended at %v with %d events queued, want 47ns and the tick", e.Now(), e.Pending())
	}

	// From an event with no process live: stop after that event.
	e.At(53, func() { e.StopWhenIdle() })
	e.Run()
	if e.Now() != 53 {
		t.Fatalf("StopWhenIdle with no process live stopped at %v, want 53ns", e.Now())
	}

	// Between runs with no process live: the next run returns at once.
	before := e.Executed()
	if err := e.RunToIdle(); err != nil || e.Executed() != before || e.Now() != 53 {
		t.Fatalf("RunToIdle with nothing live: err %v, %d events run, clock %v",
			err, e.Executed()-before, e.Now())
	}

	d := NewEngine()
	d.Go("blocked", func(p *Proc) { p.Wait(NewFuture(d)) })
	if err := d.RunToIdle(); err == nil {
		t.Fatal("RunToIdle returned nil with a process blocked on a dry queue")
	}
}

// TestStalledEndsPerpetualTick checks the stall rule: a tick that re-arms
// forever unless the kernel is stalled lets a phase with a blocked process
// fail at the first tick with nothing else queued, and never cuts short a
// phase whose process still has an event to wait for.
func TestStalledEndsPerpetualTick(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var tick func()
	tick = func() {
		if ticks++; !e.Stalled() {
			e.Schedule(10, tick)
		}
	}
	e.Schedule(10, tick)
	e.Go("worker", func(p *Proc) { p.Sleep(35) })
	if e.Stalled() {
		t.Fatal("Stalled outside a phase")
	}
	if err := e.RunToIdle(); err != nil || e.Now() != 35 || e.Pending() != 1 {
		t.Fatalf("phase with a sleeping process: err %v at %v with %d queued, want nil at 35ns with the tick", err, e.Now(), e.Pending())
	}
	release := NewFuture(e)
	e.Go("blocked", func(p *Proc) { p.Wait(release) })
	e.Go("sleeper", func(p *Proc) { p.Sleep(100) })
	err := e.RunToIdle()
	if err == nil || e.LiveProcs() != 1 {
		t.Fatalf("RunToIdle with a blocked process: err %v, %d live, want a ran-dry error and 1 live", err, e.LiveProcs())
	}
	// the sleeper kept the phase alive until 135ns; the tick at 140ns
	// found nothing else queued
	if e.Now() != 140 || ticks != 14 {
		t.Fatalf("stalled phase ended at %v after %d ticks, want 140ns after 14", e.Now(), ticks)
	}
}

// TestPassedTracksDispatchPosition checks Passed against the dispatch
// order: inside an event, reservations ordered before it are passed and
// later ones are not; a run that drains to its deadline passes everything
// reserved at or before the deadline.
func TestPassedTracksDispatchPosition(t *testing.T) {
	e := NewEngine()
	early := e.ReserveSeq()
	e.At(50, func() {
		if !e.Passed(50, early) || e.Passed(50, e.ReserveSeq()) || e.Passed(60, early) {
			t.Error("Passed disagrees with the (at, seq) order inside an event")
		}
	})
	late := e.ReserveSeq()
	e.RunUntil(70)
	if !e.Passed(70, late) || e.Passed(71, late) {
		t.Error("after RunUntil(70), Passed disagrees with the deadline")
	}
}

// TestExtendDrainsClock checks that a full Run drains the clock to the
// latest Extend instant, as the completion events it stands for would
// have, while a deadline still caps RunUntil.
func TestExtendDrainsClock(t *testing.T) {
	e := NewEngine()
	e.At(10, func() { e.Extend(300) })
	e.RunUntil(200)
	if e.Now() != 200 {
		t.Fatalf("RunUntil(200) ended at %v", e.Now())
	}
	e.Run()
	if e.Now() != 300 {
		t.Fatalf("Run ended at %v, want 300", e.Now())
	}
	e.Extend(100)
	e.Run()
	if e.Now() != 300 {
		t.Fatalf("an earlier Extend moved the clock to %v", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []VTime
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("nested scheduling produced %v, want [10 15]", times)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var marks []VTime
	e.Go("sleeper", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(100)
		marks = append(marks, p.Now())
		p.Sleep(50)
		marks = append(marks, p.Now())
	})
	e.Run()
	want := []VTime{0, 100, 150}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after run, want 0", e.LiveProcs())
	}
}

func TestProcsInterleave(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20)
		trace = append(trace, "a30")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestFutureWait(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	var wokeAt VTime
	e.Go("waiter", func(p *Proc) {
		p.Wait(f)
		wokeAt = p.Now()
	})
	e.Schedule(500, f.Complete)
	e.Run()
	if wokeAt != 500 {
		t.Errorf("waiter woke at %v, want 500", wokeAt)
	}
	if !f.Done() {
		t.Error("future not done after Complete")
	}
}

func TestFutureAlreadyDone(t *testing.T) {
	e := NewEngine()
	f := CompletedFuture(e)
	woke := false
	e.Go("waiter", func(p *Proc) {
		p.Wait(f) // must not block
		woke = true
	})
	e.Run()
	if !woke {
		t.Error("Wait on completed future blocked forever")
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	f.Complete()
	defer func() {
		if recover() == nil {
			t.Error("double Complete did not panic")
		}
	}()
	f.Complete()
}

func TestFutureOnComplete(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	var at VTime = ^VTime(0)
	f.OnComplete(func() { at = e.Now() })
	e.Schedule(77, f.Complete)
	e.Run()
	if at != 77 {
		t.Errorf("OnComplete ran at %v, want 77", at)
	}
	// Registering after completion fires at current time.
	fired := false
	f.OnComplete(func() { fired = true })
	e.Run()
	if !fired {
		t.Error("OnComplete after completion never fired")
	}
}

func TestAfterAll(t *testing.T) {
	e := NewEngine()
	fs := []*Future{NewFuture(e), NewFuture(e), NewFuture(e)}
	all := AfterAll(e, fs)
	var doneAt VTime
	all.OnComplete(func() { doneAt = e.Now() })
	e.Schedule(10, fs[0].Complete)
	e.Schedule(30, fs[2].Complete)
	e.Schedule(20, fs[1].Complete)
	e.Run()
	if doneAt != 30 {
		t.Errorf("AfterAll completed at %v, want 30 (latest input)", doneAt)
	}
	if empty := AfterAll(e, nil); !empty.Done() {
		t.Error("AfterAll of zero futures should be immediately done")
	}
}

func TestWaitAll(t *testing.T) {
	e := NewEngine()
	fs := []*Future{NewFuture(e), NewFuture(e)}
	var wokeAt VTime
	e.Go("w", func(p *Proc) {
		p.WaitAll(fs)
		wokeAt = p.Now()
	})
	e.Schedule(40, fs[1].Complete)
	e.Schedule(25, fs[0].Complete)
	e.Run()
	if wokeAt != 40 {
		t.Errorf("WaitAll woke at %v, want 40", wokeAt)
	}
}

// holder takes a permit of s through AcquireAsyncHandler, holds it for hold
// and releases it, logging the grant ("name+") and the release ("name-").
type holder struct {
	s     *Semaphore
	name  string
	hold  VTime
	held  bool
	trace *[]string
}

func (h *holder) Fire() {
	e := h.s.eng
	if !h.held {
		h.held = true
		*h.trace = append(*h.trace, h.name+"+")
		e.AtHandler(e.Now()+h.hold, h)
		return
	}
	*h.trace = append(*h.trace, h.name+"-")
	h.s.Release()
}

// TestSemaphoreBlocking: permits go to waiting handlers first come, first
// served, each handed over by the Release that frees it.
func TestSemaphoreBlocking(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 2)
	var trace []string
	for _, h := range []*holder{
		{name: "a", hold: 100},
		{name: "b", hold: 150},
		{name: "c", hold: 10}, // must wait for a or b
		{name: "d", hold: 10}, // must wait for c: FIFO
	} {
		h.s, h.trace = s, &trace
		s.AcquireAsyncHandler(h)
	}
	if s.Waiting() != 2 {
		t.Fatalf("Waiting = %d, want 2", s.Waiting())
	}
	e.Run()
	// c cannot start before the first release at t=100, nor d before c's.
	want := []string{"a+", "b+", "a-", "c+", "c-", "d+", "d-", "b-"}
	if !slices.Equal(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	if e.Now() != 150 || s.Available() != 2 {
		t.Fatalf("ended at %v with %d permits, want 150 and 2", e.Now(), s.Available())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 1)
	if !s.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if s.TryAcquire() {
		t.Fatal("second TryAcquire succeeded on empty semaphore")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
	if s.Available() != 0 {
		t.Errorf("Available = %d, want 0", s.Available())
	}
}

func TestSemaphoreAcquireAsync(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 1)
	s.TryAcquire()
	granted := VTime(0)
	s.AcquireAsyncHandler(Func(func() { granted = e.Now() }))
	if s.Waiting() != 1 {
		t.Fatalf("Waiting = %d, want 1", s.Waiting())
	}
	e.Schedule(60, s.Release)
	e.Run()
	if granted != 60 {
		t.Errorf("async grant at %v, want 60", granted)
	}
}

func TestNegativeSemaphorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSemaphore(-1) did not panic")
		}
	}()
	NewSemaphore(NewEngine(), -1)
}

func TestFIFOResource(t *testing.T) {
	var r FIFOResource
	s1, e1 := r.Reserve(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first Reserve = [%v,%v], want [0,100]", s1, e1)
	}
	// Arrives while busy: queued behind.
	s2, e2 := r.Reserve(50, 30)
	if s2 != 100 || e2 != 130 {
		t.Fatalf("queued Reserve = [%v,%v], want [100,130]", s2, e2)
	}
	// Arrives after idle: starts immediately.
	s3, e3 := r.Reserve(500, 10)
	if s3 != 500 || e3 != 510 {
		t.Fatalf("idle Reserve = [%v,%v], want [500,510]", s3, e3)
	}
	if r.BusyTotal() != 140 {
		t.Errorf("BusyTotal = %v, want 140", r.BusyTotal())
	}
	if !r.IdleAt(600) || r.IdleAt(505) {
		t.Error("IdleAt wrong")
	}
}

func TestFIFOResourceNeverOverlaps(t *testing.T) {
	// Property: service intervals from a FIFOResource never overlap and
	// are ordered by reservation order.
	check := func(arrivals []uint32, durs []uint16) bool {
		var r FIFOResource
		now := VTime(0)
		prevEnd := VTime(0)
		for i := range arrivals {
			now += VTime(arrivals[i] % 1000)
			d := VTime(durs[i%len(durs)]%500) + 1
			s, e := r.Reserve(now, d)
			if s < now || s < prevEnd || e != s+d {
				return false
			}
			prevEnd = e
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(a []uint32, d []uint16) bool {
		if len(a) == 0 || len(d) == 0 {
			return true
		}
		return check(a, d)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []VTime {
		e := NewEngine()
		rng := NewRNG(42)
		var out []VTime
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 3 {
				return
			}
			e.Schedule(VTime(rng.Intn(1000)), func() {
				out = append(out, e.Now())
				spawn(depth + 1)
			})
		}
		for i := 0; i < 5; i++ {
			spawn(0)
		}
		e.Go("p", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(VTime(rng.Intn(100) + 1))
				out = append(out, p.Now())
			}
		})
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic run lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(7)
	a := g.Split("nand")
	b := g.Split("workload")
	c := g.Split("nand") // same name → same stream
	av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
	if av == bv {
		t.Error("differently named splits produced identical first draws")
	}
	if av != cv {
		t.Error("same-named splits diverged")
	}
}

func TestRNGSplitSelfCollision(t *testing.T) {
	// Even if the name hash XORs to the parent seed, the child must differ.
	g := NewRNG(0)
	child := g.Split("") // fnv of empty is a constant; just exercise the path
	if child.Seed() == g.Seed() {
		t.Error("child seed equals parent seed")
	}
}

func TestRNGBasicRanges(t *testing.T) {
	g := NewRNG(123)
	for i := 0; i < 1000; i++ {
		if v := g.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := g.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := g.Int63n(5); v < 0 || v >= 5 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if seen[v] {
			t.Fatal("Perm repeated a value")
		}
		seen[v] = true
	}
}

func TestProcWaitCompletedFutureKeepsTime(t *testing.T) {
	e := NewEngine()
	var at VTime
	f := NewFuture(e)
	e.Schedule(10, f.Complete)
	e.Go("p", func(p *Proc) {
		p.Sleep(50) // future completes at 10, before we wait
		p.Wait(f)   // must not block or move time
		at = p.Now()
	})
	e.Run()
	if at != 50 {
		t.Errorf("Wait on done future moved time to %v, want 50", at)
	}
}

func TestEngineStateFork(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(10, func() { fired = append(fired, 1) })
	e.Schedule(20, func() { fired = append(fired, 2) })
	e.Run()
	st := e.State()
	if st.Now != 20 || st.Executed != 2 {
		t.Fatalf("State() = %+v, want Now=20 Executed=2", st)
	}

	// Move the engine forward, then fork the captured state: the queued
	// event must stay behind and clock/seq/executed must rewind exactly.
	e.Schedule(5, func() { fired = append(fired, 3) })
	e.Run()
	e.Schedule(100, func() { t.Error("queued event ran on the fork") })
	f := e.Fork(st)
	if f.Now() != 20 || f.Executed() != 2 || f.Pending() != 0 {
		t.Fatalf("fork: now=%v executed=%d pending=%d", f.Now(), f.Executed(), f.Pending())
	}

	// The fork must schedule and run normally from the captured clock.
	f.Schedule(10, func() { fired = append(fired, 4) })
	f.Run()
	if f.Now() != 30 {
		t.Errorf("fork Now() = %v, want 30", f.Now())
	}
	if len(fired) != 4 || fired[3] != 4 {
		t.Errorf("fired = %v, want [1 2 3 4]", fired)
	}
}

func TestEngineForkSeqContinuity(t *testing.T) {
	// Two engines: one runs straight through, the other detours and is
	// forked from the state before the detour. Same-time events scheduled
	// after the fork must interleave identically — i.e. Fork rewinds the
	// sequence counter too.
	run := func(detour bool) []int {
		e := NewEngine()
		e.Schedule(10, func() {})
		e.Run()
		st := e.State()
		if detour {
			e.Schedule(1, func() {})
			e.Schedule(2, func() {})
			e.Run()
			e = e.Fork(st)
		}
		var order []int
		for i := 0; i < 4; i++ {
			i := i
			e.Schedule(5, func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := run(false), run(true)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("orders %v / %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-time ordering diverged after Fork: %v vs %v", a, b)
		}
	}
}

func TestEngineForkLeavesProcsBehind(t *testing.T) {
	// A fork taken while a process sleeps on the engine starts with no
	// live process and nothing queued; the process finishes on its own
	// engine.
	e := NewEngine()
	st := e.State()
	woke := false
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(1000)
		woke = true
	})
	e.RunUntil(10)
	f := e.Fork(st)
	if f.LiveProcs() != 0 || f.Pending() != 0 {
		t.Fatalf("fork holds %d live processes and %d events, want none", f.LiveProcs(), f.Pending())
	}
	f.Run()
	if woke {
		t.Fatal("the source's process ran on the fork")
	}
	e.Run()
	if !woke || e.LiveProcs() != 0 {
		t.Fatalf("source process woke=%v, %d live after its run", woke, e.LiveProcs())
	}
}
