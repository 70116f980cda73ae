package sim

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// sleeper starts a process that sleeps 1 ns per iteration until *stop is
// set, so every RunUntil step of n ns is n process wake-ups.
func sleeper(e *Engine, stop *bool) {
	e.Go("sleeper", func(p *Proc) {
		for !*stop {
			p.Sleep(1)
		}
	})
}

// TestProcWakeAllocs guards the process switch: once a process is running,
// waking it (Sleep's timer, a completed Future, a semaphore grant routed
// through a Future) and parking it again must not allocate. Every
// checkpoint and flush epoch blocks and wakes many times, so an allocation
// here is paid on every epoch I/O.
func TestProcWakeAllocs(t *testing.T) {
	e := NewEngine()
	stop := false
	sleeper(e, &stop)
	e.RunUntil(16)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 16) }); n != 0 {
		t.Errorf("Sleep wake-up allocates %.2f per 16 wake-ups, want 0", n)
	}

	// Wait on a future completed by an event, then take a permit handed
	// over by an event: the process queues a future as its semaphore
	// waiter and waits on that.
	const waits = 202
	futs := make([]*Future, 0, waits)
	grants := make([]*Future, 0, waits)
	for i := 0; i < waits; i++ {
		futs = append(futs, NewFuture(e))
		grants = append(grants, NewFuture(e))
	}
	sem := NewSemaphore(e, 0)
	release := sem.Release
	next := 0
	e.Go("waiter", func(p *Proc) {
		for next < len(futs) {
			p.Wait(futs[next])
			sem.AcquireAsyncHandler(grants[next])
			p.Wait(grants[next])
			next++
		}
	})
	step := func() {
		e.AtHandler(e.Now()+1, futs[next])
		e.Schedule(2, release)
		e.RunUntil(e.Now() + 2)
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("Wait/grant wake-up allocates %.2f per round, want 0", n)
	}
	stop = true
	for next < len(futs) {
		step()
	}
	e.Run()
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after both processes returned, want 0", e.LiveProcs())
	}

	// Pace: the pacer lives in the Proc, so a paced loop allocates nothing.
	steps := 0
	count := func(int) { steps++ }
	rounds := 0
	e.Go("pacer", func(p *Proc) {
		for rounds < 102 {
			p.Pace(8, 1, count)
			rounds++
		}
	})
	e.RunUntil(e.Now() + 8)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 8) }); n != 0 {
		t.Errorf("Pace allocates %.2f per 8 steps, want 0", n)
	}
	e.Run()
	if steps != 8*102 {
		t.Errorf("Pace ran %d steps, want %d", steps, 8*102)
	}
}

func panicker() { panic(errors.New("boom")) }

// TestProcPanicSurfacesFromRun checks that a panic inside a process body
// reaches the goroutine running the engine as a *ProcPanic carrying the
// process name, the original value and the process's own stack — so a
// caller can contain it (as runner.Run does per job) instead of the whole
// program dying on a goroutine nobody can recover.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	e.Go("doomed", func(p *Proc) {
		p.Sleep(10)
		panicker()
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *ProcPanic", got, got)
	}
	if pp.Proc != "doomed" {
		t.Errorf("ProcPanic.Proc = %q, want doomed", pp.Proc)
	}
	if err, _ := pp.Value.(error); err == nil || err.Error() != "boom" {
		t.Errorf("ProcPanic.Value = %v, want the error boom", pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "sim.panicker") {
		t.Errorf("ProcPanic.Stack lacks the panicking frame:\n%s", pp.Stack)
	}
	if want := `sim: process "doomed" panicked: boom`; pp.Error() != want {
		t.Errorf("Error() = %q, want %q", pp.Error(), want)
	}
	if e.Now() != 10 {
		t.Errorf("clock at %v after the panic, want 10", e.Now())
	}
}

// TestProcResumeAcrossGoroutines drives engines the way the shard layer
// does: every window of every engine runs on a fresh goroutine, with
// several engines running at once, so a process parked under one goroutine
// is resumed by another. Each engine's trace must match a run driven from
// one goroutine. Run it under -race.
func TestProcResumeAcrossGoroutines(t *testing.T) {
	const engines, procs, window = 4, 3, 50
	build := func(seed int64) (*Engine, *[]string) {
		e := NewEngine()
		rng := NewRNG(seed)
		var trace []string
		for i := 0; i < procs; i++ {
			name := string(rune('a' + i))
			e.Go(name, func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(VTime(rng.Intn(40) + 1))
					trace = append(trace, name+p.Now().String())
				}
			})
		}
		return e, &trace
	}
	var es [engines]*Engine
	var traces [engines]*[]string
	for i := range es {
		es[i], traces[i] = build(int64(i + 1))
	}
	live := func() (n int) {
		for _, e := range es {
			n += e.LiveProcs()
		}
		return n
	}
	for w := VTime(1); live() > 0; w++ {
		var wg sync.WaitGroup
		for _, e := range es {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.RunUntil(w * window)
			}()
		}
		wg.Wait()
	}
	for i := range es {
		ref, want := build(int64(i + 1))
		ref.Run()
		if got := *traces[i]; strings.Join(got, " ") != strings.Join(*want, " ") {
			t.Errorf("engine %d: windowed run across goroutines diverged:\n got %v\nwant %v", i, got, *want)
		}
		if len(*want) != procs*20 {
			t.Errorf("engine %d: reference trace has %d entries, want %d", i, len(*want), procs*20)
		}
	}
}

// BenchmarkProcSwitch measures one process wake-up and park: the event
// that resumes a blocked process plus the process blocking again. It uses
// only the public API, so it runs unchanged against any kernel version.
func BenchmarkProcSwitch(b *testing.B) {
	b.Run("sleep", func(b *testing.B) {
		e := NewEngine()
		stop := false
		sleeper(e, &stop)
		e.RunUntil(1)
		b.ReportAllocs()
		b.ResetTimer()
		e.RunUntil(e.Now() + VTime(b.N))
		b.StopTimer()
		stop = true
		e.Run()
	})
	b.Run("wait", func(b *testing.B) {
		e := NewEngine()
		futs := make([]*Future, b.N)
		for i := range futs {
			futs[i] = NewFuture(e)
		}
		e.Go("waiter", func(p *Proc) {
			for _, f := range futs {
				p.Wait(f)
			}
		})
		// One completion in flight at a time keeps the event heap at one
		// entry, so the benchmark times the switch rather than heap depth.
		i := 0
		var complete func()
		complete = func() {
			futs[i].Complete()
			if i++; i < len(futs) {
				e.Schedule(1, complete)
			}
		}
		e.Schedule(1, complete)
		e.RunUntil(0)
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
}

// BenchmarkProcPace measures one Pace step: the event that runs a step of a
// paced loop and schedules the next, standing in for BenchmarkProcSwitch's
// "sleep" wake-up plus park.
func BenchmarkProcPace(b *testing.B) {
	e := NewEngine()
	e.Go("pacer", func(p *Proc) { p.Pace(b.N+1, 1, func(int) {}) })
	e.RunUntil(1)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// ticker is a self-rescheduling timer for BenchmarkEventDispatch.
type ticker struct {
	e    *Engine
	d    VTime
	left *int
}

func (t *ticker) Fire() {
	if *t.left--; *t.left > 0 {
		t.e.AtHandler(t.e.now+t.d, t)
	}
}

// BenchmarkEventDispatch measures one event's push and dispatch under the
// simulator's timer shape: 64 timers rescheduling exactly 10 ahead, the
// host I/O overhead's shape, over 32 events at other delays that keep the
// heap about as deep as a flash backlog does. "heap" queues the timers in
// the heap, "lane" in a delay lane; the dispatch order is the same.
func BenchmarkEventDispatch(b *testing.B) {
	for _, lane := range []bool{false, true} {
		b.Run(map[bool]string{false: "heap", true: "lane"}[lane], func(b *testing.B) {
			e := NewEngine()
			if lane {
				e.DelayLane(10)
			}
			left := b.N
			for i := range 64 {
				e.AtHandler(VTime(1+i%10), &ticker{e: e, d: 10, left: &left})
			}
			for i := range 32 {
				e.AtHandler(VTime(1+i%7), &ticker{e: e, d: []VTime{7, 9, 13, 17, 23}[i%5], left: &left})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
