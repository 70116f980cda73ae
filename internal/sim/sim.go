// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives every timed component of the Check-In reproduction: the
// NAND flash array, the SSD controller, and the simulated storage-engine
// client threads. Simulated time is virtual (VTime, nanoseconds); nothing in
// the simulation path consults the wall clock, so a run is a pure function of
// its configuration and seed.
//
// Two styles of simulated activity are supported:
//
//   - Callback events: Engine.Schedule(delay, fn) runs fn at a future virtual
//     time, and AtHandler fires any Handler. Cheap; used for I/O completions,
//     timers, the closed-loop clients (a YCSB thread issuing queries
//     back-to-back) and the open-loop shard workers, each a Handler that
//     resumes its query's state machine when a timer, a Future or a
//     Semaphore grant fires it.
//   - Processes: Engine.Go starts a cooperative process (Proc) that may Sleep
//     and Wait on Futures. Processes express long multi-step work as
//     straight-line code: the load phase, checkpoint, memtable-flush and
//     compaction epochs, and the drivers of tests and verification harnesses.
//
// Each process is a coroutine: the event that wakes it switches directly to
// the process's stack, and the process switches back when it blocks, so only
// one of them executes at a time and execution order — and therefore every
// simulation result — is deterministic.
//
// # Event lanes
//
// Events dispatch in (at, seq) order: instant first, then the sequence
// number every scheduling call draws. Most events wait in a 4-ary heap, but
// those whose instants arrive in order wait in FIFO lanes beside it, where
// a push and a pop cost O(1):
//
//   - the now-lane takes events at the current instant;
//   - a delay lane (DelayLane(d)) takes every event scheduled exactly d
//     ahead — Sleep(d), Pace with gap d, AtHandler(Now()+d, ...). The clock
//     never runs backwards while events are queued, so they arrive in order;
//   - an explicit lane (NewLane, AtLane) takes the events of one source
//     that books non-decreasing instants, such as a FIFO resource's
//     completions.
//
// A push earlier than its lane's newest event goes to the heap instead, and
// InjectCompletion, whose reserved seq is older than queued events, always
// does. Every container is thus sorted by (at, seq), a strict total order,
// and RunUntil dispatches the least of the heap head and the lane heads:
// exactly the sequence a single heap would dispatch. Lanes change what an
// event costs, never when it runs. A fork starts with them empty.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// VTime is a point in (or duration of) virtual time, in nanoseconds.
type VTime uint64

// Convenient virtual-time units.
const (
	Nanosecond  VTime = 1
	Microsecond VTime = 1000 * Nanosecond
	Millisecond VTime = 1000 * Microsecond
	Second      VTime = 1000 * Millisecond
)

// String renders a VTime using the most natural unit.
func (t VTime) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", uint64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t VTime) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t VTime) Micros() float64 { return float64(t) / float64(Microsecond) }

// A Handler is what the kernel runs: the payload of an event, a future
// waiter or a semaphore waiter. A *Future fires by completing, a *Proc by
// resuming, and a func() by way of the Func adapter. Converting any pointer
// or func value to a Handler does not allocate, so one event field covers
// every kind of callback without a per-call method-value closure.
type Handler interface{ Fire() }

// Func adapts a plain callback to Handler.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

type event struct {
	at  VTime
	seq uint64 // tie-breaker: FIFO among same-time events
	h   Handler
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). The heap is hand
// rolled rather than built on container/heap: the interface-based API boxes
// every event into an `any` on Push/Pop, which made the two calls the
// largest allocation sites in the whole simulator (~40% of objects on the
// paper's experiment suite). The fan-out of four halves the sift-down depth
// versus a binary heap — pop is the hottest kernel operation once event
// dispatch stops allocating — and since (at, seq) is a strict total order
// (seq is unique), the dispatch sequence is identical to any other heap
// arity: determinism does not depend on the internal shape.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the handler reference for GC
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		least := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if s.less(j, least) {
				least = j
			}
		}
		if !s.less(least, i) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// lane is a FIFO of events in (at, seq) order, beside the heap: a ring
// whose length is a power of two, so a lane that never drains stays
// O(pending) and a steady state reuses its array. Only events that keep the
// order are pushed (see Engine.toLane), so the head is the lane's least.
type lane struct {
	ring  []event
	head  int   // ring index of the oldest pending event
	n     int   // pending events
	timer bool  // a delay lane: AtHandler sends it events exactly delay ahead
	delay VTime // the delay a timer lane takes
}

func (l *lane) push(ev event) {
	if l.n == len(l.ring) {
		// full: unroll into a ring twice the size, oldest first
		ring := make([]event, max(16, 2*len(l.ring)))
		k := copy(ring, l.ring[l.head:])
		copy(ring[k:], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = ev
	l.n++
}

func (l *lane) pop() event {
	ev := l.ring[l.head]
	l.ring[l.head] = event{} // release the handler reference for GC
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return ev
}

// back is the newest pending event; the lane must not be empty.
func (l *lane) back() *event { return &l.ring[(l.head+l.n-1)&(len(l.ring)-1)] }

// A Lane names one of an engine's explicit event lanes (see NewLane).
type Lane int

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; create one with NewEngine.
type Engine struct {
	now      VTime
	events   eventHeap
	seq      uint64
	stopped  bool
	stopIdle bool // armed by StopWhenIdle

	// lanes hold the events whose instants arrive in order, beside the heap
	// (see the package comment under "Event lanes"). lanes[0] is the
	// now-lane, the delay-0 timer lane: events scheduled at the current
	// instant (Schedule(0, ...): future-waiter wake-ups, semaphore grants —
	// the majority of all events). The rest are the delay lanes of
	// DelayLane and the explicit lanes of NewLane, in registration order.
	lanes []lane

	liveProcs int
	executed  uint64

	// cur is the sequence number of the event being (or last) dispatched:
	// together with now it is the dispatch position Passed compares
	// against. Once a run has dispatched every event up to its deadline,
	// cur is the last number drawn, so every completion reserved so far
	// at or before now counts as passed.
	cur uint64

	// tail is the latest instant of timed work that completes without an
	// event of its own (see Extend). A full Run drains the clock to it.
	tail VTime

	// completed is the engine's shared already-done future. A completed
	// future is immutable (OnComplete on a done future only schedules, and
	// Complete on one always panics), so every fast path that finishes
	// synchronously can hand out the same instance instead of allocating.
	completed *Future

	// waiterLists holds emptied waiter lists of completed futures, for the
	// next future that gains a second waiter (see Future.addWaiter).
	waiterLists []*[]Handler
}

// maxVTime is the end of virtual time, used as the "no deadline" sentinel.
const maxVTime = ^VTime(0)

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{lanes: []lane{{timer: true}}} }

// DelayLane gives events scheduled exactly d ahead of the clock (Sleep(d),
// Pace with gap d, AtHandler(Now()+d, ...)) a lane of their own. The clock
// never runs backwards while events are queued, so such events arrive in
// (at, seq) order and each costs O(1) instead of a heap push and pop.
// Registering a delay twice is a no-op; it changes no dispatch order.
func (e *Engine) DelayLane(d VTime) {
	for i := range e.lanes {
		if e.lanes[i].timer && e.lanes[i].delay == d {
			return
		}
	}
	e.lanes = append(e.lanes, lane{timer: true, delay: d})
}

// NewLane registers an explicit lane for AtLane: meant for one source
// that books its events at non-decreasing instants, such as a FIFO
// resource's completions. It changes no dispatch order.
func (e *Engine) NewLane() Lane {
	e.lanes = append(e.lanes, lane{})
	return Lane(len(e.lanes) - 1)
}

// AtLane is AtHandler(t, h) queued in lane l. An event earlier than the
// lane's newest goes to the heap instead, so the lane stays in order and
// dispatch is exactly AtHandler's either way.
func (e *Engine) AtLane(l Lane, t VTime, h Handler) {
	e.toLane(&e.lanes[l], e.next(t, h))
}

// next draws the next sequence number for h's event at t. Scheduling in
// the past panics: it would silently reorder causality.
func (e *Engine) next(t VTime, h Handler) event {
	if t < e.now {
		e.past("scheduling event", t)
	}
	e.seq++
	return event{at: t, seq: e.seq, h: h}
}

// past panics for an event scheduled before now; kept out of line so that
// next inlines into every scheduling call.
//
//go:noinline
func (e *Engine) past(what string, t VTime) {
	panic(fmt.Sprintf("sim: %s at %v, before now %v", what, t, e.now))
}

// toLane appends ev, whose seq is the newest drawn, to l if that keeps l in
// (at, seq) order, and pushes it on the heap otherwise.
func (e *Engine) toLane(l *lane, ev event) {
	if l.n > 0 && l.back().at > ev.at {
		e.events.push(ev)
		return
	}
	l.push(ev)
}

// Now returns the current virtual time.
func (e *Engine) Now() VTime { return e.now }

// Executed returns the number of events processed so far (diagnostics).
func (e *Engine) Executed() uint64 { return e.executed }

// LiveProcs returns the number of processes that have started but not
// finished.
func (e *Engine) LiveProcs() int { return e.liveProcs }

// Schedule runs fn after delay units of virtual time.
func (e *Engine) Schedule(delay VTime, fn func()) {
	e.AtHandler(e.now+delay, Func(fn))
}

// At runs fn at absolute virtual time t. Scheduling in the past panics: it
// would silently reorder causality.
func (e *Engine) At(t VTime, fn func()) {
	e.AtHandler(t, Func(fn))
}

// AtHandler fires h at absolute virtual time t; At(t, fn) is
// AtHandler(t, Func(fn)). Passing a *Future completes it at t. Every form
// draws from one sequence counter, so same-instant events fire in
// submission order whatever their kind. An event exactly a lane's delay
// ahead (0 included) queues in that timer lane, any other in the heap.
func (e *Engine) AtHandler(t VTime, h Handler) {
	ev := e.next(t, h)
	d := t - e.now
	for i := range e.lanes {
		if l := &e.lanes[i]; l.timer && l.delay == d {
			e.toLane(l, ev)
			return
		}
	}
	e.events.push(ev)
}

// ReserveSeq draws the next event sequence number without scheduling
// anything. Timed work whose completion needs no event of its own (a flash
// operation, see FanIn) draws it where AtHandler would have drawn the
// completion event's number, so the completion keeps its place in the
// (at, seq) order: it can still be injected there, or compared with the
// dispatch position (Passed).
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// InjectCompletion fires h at (at, seq), where seq was reserved earlier
// with ReserveSeq. The event always goes through the heap, never a lane:
// its seq predates events already queued, so appending it could break a
// lane's order, while the dispatcher's (at, seq) merge of the heap head
// with the lane heads orders it correctly. Injecting into the past panics.
func (e *Engine) InjectCompletion(at VTime, seq uint64, h Handler) {
	if at < e.now {
		e.past("injecting completion", at)
	}
	e.events.push(event{at: at, seq: seq, h: h})
}

// Passed reports whether an event at (at, seq) would already have been
// dispatched. Events dispatch in (at, seq) order, so a completion reserved
// with ReserveSeq is over exactly when it precedes the dispatch position.
func (e *Engine) Passed(at VTime, seq uint64) bool {
	return at < e.now || (at == e.now && seq <= e.cur)
}

// Extend records timed work that completes at t without an event of its
// own. Run drains the clock to the latest such instant, as the completion
// event it stands for would have; RunUntil with a deadline is unaffected.
func (e *Engine) Extend(t VTime) {
	if t > e.tail {
		e.tail = t
	}
}

// Stop makes Run return after the currently executing event, or, called
// between runs, the next run return at once.
func (e *Engine) Stop() { e.stopped = true }

// StopWhenIdle ends a phase at its own last event: the run stops after the
// current event if no process is live, else after the last live process's
// exit. Queued events, such as a self-re-arming tick, wait for the next run.
func (e *Engine) StopWhenIdle() {
	if e.liveProcs == 0 {
		e.Stop()
		return
	}
	e.stopIdle = true
}

// Stalled reports whether the phase StopWhenIdle armed can no longer end:
// a process is still live but no event is queued, so nothing is left to
// wake it. A source that re-arms itself forever (the SSD deallocator) asks
// after its own work and stops re-arming when it holds, so the queue runs
// dry and the phase fails (RunToIdle's error) instead of spinning.
func (e *Engine) Stalled() bool {
	return e.stopIdle && e.liveProcs > 0 && e.Pending() == 0
}

// RunToIdle runs until no process is live (StopWhenIdle, then Run); it
// fails if the queue runs dry first, with a process still blocked.
func (e *Engine) RunToIdle() error {
	e.StopWhenIdle()
	e.Run()
	if e.liveProcs > 0 {
		return fmt.Errorf("sim: event queue ran dry with %d processes blocked", e.liveProcs)
	}
	return nil
}

// Run executes events until none remain or Stop is called. Unless stopped,
// it then advances the clock to the latest Extend instant.
func (e *Engine) Run() {
	e.RunUntil(^VTime(0))
}

// RunUntil executes events with timestamps <= deadline, advancing the clock
// to the deadline if it runs out of events earlier. Events beyond the
// deadline stay queued. After Stop the clock stays at the stopping event:
// advancing it could pass an event still queued before the deadline.
func (e *Engine) RunUntil(deadline VTime) {
	for !e.stopped {
		// Select the (at, seq)-least pending event across the heap and
		// the lane heads — exactly the order a single heap would
		// dispatch, since each container is in (at, seq) order itself.
		var head *event
		var src *lane // nil: the heap
		if len(e.events) > 0 {
			head = &e.events[0]
		}
		for i := range e.lanes {
			l := &e.lanes[i]
			if l.n == 0 {
				continue
			}
			if f := &l.ring[l.head]; head == nil || f.at < head.at || (f.at == head.at && f.seq < head.seq) {
				head, src = f, l
			}
		}
		if head == nil || head.at > deadline {
			break
		}
		var ev event
		if src == nil {
			ev = e.events.pop()
		} else {
			ev = src.pop()
		}
		e.now, e.cur = ev.at, ev.seq
		e.executed++
		ev.h.Fire()
	}
	if e.stopped {
		e.stopped = false
		return
	}
	if deadline == maxVTime {
		deadline = e.tail
	}
	if e.now < deadline {
		e.now = deadline
	}
	e.cur = e.seq
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int {
	n := len(e.events)
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

// EngineState is the kernel state a fork starts from: the virtual clock,
// the event sequence counter (same-time tie-break order) and the
// executed-event count. Queued events are deliberately NOT part of the
// state — closures cannot be copied — so State is only meaningful at a
// quiescent point where the queue holds nothing the caller cannot
// deterministically re-create (see Engine.Fork).
type EngineState struct {
	Now      VTime
	Seq      uint64
	Executed uint64
}

// State captures the kernel counters for a later Fork.
func (e *Engine) State() EngineState {
	return EngineState{Now: e.now, Seq: e.seq, Executed: e.executed}
}

// Fork returns a new engine at state s with e's lanes registered, in e's
// order and empty, so lane handles taken on e (NewLane) name the same
// lanes on the fork. Nothing is queued on the fork and no process lives on
// it (e's stay on e): the caller re-creates whatever periodic events belong
// at s. Because the sequence counter is s's too, re-created events draw the
// tie-break numbers they had on the original timeline, keeping same-time
// ordering identical. The fork reserves what e's queues and waiter-list
// pool have grown to, so it allocates exactly when e would. e is only
// read, so any number of forks may be taken from it concurrently.
func (e *Engine) Fork(s EngineState) *Engine {
	f := &Engine{
		events:      make(eventHeap, 0, cap(e.events)),
		lanes:       make([]lane, len(e.lanes)),
		waiterLists: make([]*[]Handler, len(e.waiterLists), cap(e.waiterLists)),
	}
	for i, l := range e.lanes {
		f.lanes[i] = lane{ring: make([]event, len(l.ring)), timer: l.timer, delay: l.delay}
	}
	for i, l := range e.waiterLists {
		wl := make([]Handler, 0, cap(*l))
		f.waiterLists[i] = &wl
	}
	if e.completed != nil {
		CompletedFuture(f)
	}
	f.now, f.seq, f.cur, f.executed = s.Now, s.Seq, s.Seq, s.Executed
	return f
}

// A Proc is a cooperative simulated process. All its methods must be called
// from the process itself (inside the function passed to Engine.Go).
type Proc struct {
	eng  *Engine
	name string

	// resume and yield are the two ends of the process's coroutine (an
	// iter.Pull over the process body). resume runs the process until it
	// blocks or returns; yield, called only by the process, parks it and
	// returns control to resume's caller. The runtime switches stacks
	// directly in both directions, without a trip through the goroutine
	// scheduler.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	// pace is the process's one pacer: a parked process cannot start a
	// second Pace, so the record is reused and pacing allocates nothing.
	pace pacer
}

// A ProcPanic is the value the engine panics with when a process body
// panics. The panic surfaces on the goroutine running the engine (from Run
// or RunUntil), where callers can recover it like any event callback's
// panic; Stack keeps the process's own stack, which the re-panic would
// otherwise lose.
type ProcPanic struct {
	Proc  string // the process name given to Engine.Go
	Value any    // the value the process panicked with
	Stack []byte // the process's stack at the panic
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", pp.Proc, pp.Value)
}

// Name returns the name given at Go time (diagnostics).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns current virtual time.
func (p *Proc) Now() VTime { return p.eng.now }

// Go starts a new process at the current virtual time. The process body runs
// when the engine reaches the scheduling event; it may call Sleep and Wait.
func (e *Engine) Go(name string, fn func(p *Proc)) {
	p := &Proc{eng: e, name: name}
	e.liveProcs++
	e.Schedule(0, func() {
		p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer p.wrapPanic()
			fn(p)
			if e.liveProcs--; e.liveProcs == 0 && e.stopIdle {
				e.stopIdle = false
				e.Stop()
			}
		})
		p.Fire()
	})
}

// wrapPanic, deferred around the process body, turns a panic escaping it
// into a *ProcPanic. iter.Pull then re-raises that from resume, inside the
// engine event that woke the process.
func (p *Proc) wrapPanic() {
	if r := recover(); r != nil {
		panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
	}
}

// Fire transfers control into the process and returns (to the engine event
// that called it) once the process blocks or terminates. It is the
// process's wake-up Handler: Sleep, Wait and Pace queue the *Proc (or its
// pacer) itself, so parking allocates nothing.
func (p *Proc) Fire() { p.resume() }

// block parks the process until something fires it. The wake-up must
// already be scheduled before calling block.
func (p *Proc) block() {
	if p.pace.inStep {
		panic(fmt.Sprintf("sim: process %q blocked inside a Pace step", p.name))
	}
	p.yield(struct{}{})
}

// Sleep suspends the process for d units of virtual time.
func (p *Proc) Sleep(d VTime) {
	p.eng.AtHandler(p.eng.now+d, p)
	p.block()
}

// Pace dispatches exactly as
//
//	for k := 0; k < n; k++ {
//		p.Sleep(gap)
//		step(k)
//	}
//
// without resuming the process between steps. step(k) runs in engine
// context inside the event the k-th Sleep would have scheduled: same
// instant, same sequence number, drawn at the same point (at the call for
// k = 0, right after step(k-1) otherwise). After step(n-1) the process
// resumes inline in that same event; a separate wake-up would draw a later
// sequence number and reorder same-instant events. Each step event stands
// in for one wake-up event, so the executed-event count is unchanged too.
// step must not block: it does not run on the process's stack.
func (p *Proc) Pace(n int, gap VTime, step func(k int)) {
	if n <= 0 {
		return
	}
	p.pace = pacer{p: p, step: step, n: n, gap: gap}
	p.eng.AtHandler(p.eng.now+gap, &p.pace)
	p.block()
}

// pacer is the state of one Proc.Pace; each Fire is one step.
type pacer struct {
	p      *Proc
	step   func(k int)
	k, n   int
	gap    VTime
	inStep bool // step is running: the process must not block
}

func (pc *pacer) Fire() {
	pc.inStep = true
	pc.step(pc.k)
	pc.inStep = false
	if pc.k++; pc.k < pc.n {
		e := pc.p.eng
		e.AtHandler(e.now+pc.gap, pc)
		return
	}
	pc.step = nil
	pc.p.Fire()
}

// Wait suspends the process until f completes. Returns immediately if f is
// already complete.
func (p *Proc) Wait(f *Future) {
	if f.done {
		return
	}
	f.addWaiter(p)
	p.block()
}

// WaitAll waits for every future in fs.
func (p *Proc) WaitAll(fs []*Future) {
	for _, f := range fs {
		p.Wait(f)
	}
}

// A Future is a one-shot completion signal carrying no value. It is
// completed at most once, from engine context (an event or a process).
type Future struct {
	eng  *Engine
	done bool
	// tag is free for the package that embeds the future (see SetTag); it
	// sits in done's padding, so it costs no space.
	tag uint8
	// w0 holds the first waiter inline: the overwhelming majority of
	// futures have exactly one waiter, and keeping it out of the list
	// avoids a heap allocation per wait. The later waiters sit behind a
	// pointer: an inline []Handler would move Future from the 48-byte to
	// the 64-byte size class, which measured ~2% higher peak RSS on
	// journal-a-zipf, while only futures with several waiters pay for
	// the pointer's allocation. Complete hands the emptied list to the
	// engine, and the next future to need one takes it from there.
	w0      Handler
	waiters *[]Handler
}

// addWaiter registers h preserving FIFO wake-up order.
func (f *Future) addWaiter(h Handler) {
	if f.w0 == nil {
		f.w0 = h
		return
	}
	if f.waiters == nil {
		e := f.eng
		if n := len(e.waiterLists); n > 0 {
			f.waiters = e.waiterLists[n-1]
			e.waiterLists[n-1] = nil
			e.waiterLists = e.waiterLists[:n-1]
		} else {
			f.waiters = new([]Handler)
		}
	}
	*f.waiters = append(*f.waiters, h)
}

// NewFuture returns an incomplete future bound to e.
func NewFuture(e *Engine) *Future { return &Future{eng: e} }

// Init binds a zero Future to e as an incomplete future. It readies a
// Future embedded in a larger record, so the record is the one allocation.
// A future that has been handed out may be zeroed and Init again only once
// every holder has given it up: the package that recycles it defines how
// (ssd.Device.Release, for instance).
func (f *Future) Init(e *Engine) { f.eng = e }

// SetTag stores a small value chosen by the package that embeds f in its
// own records. Such a package tags the futures it hands out, so it can tell
// them from any other future it is given back. Zeroing f clears the tag.
func (f *Future) SetTag(t uint8) { f.tag = t }

// Tag returns the value SetTag stored, or 0.
func (f *Future) Tag() uint8 { return f.tag }

// CompletedFuture returns an already-complete future (for fast paths that
// finish synchronously). The instance is shared per engine: done futures
// never mutate, so callers may wait on it, poll it, and register callbacks
// freely — but must not call Complete on it (as on any done future).
func CompletedFuture(e *Engine) *Future {
	if e.completed == nil {
		e.completed = &Future{eng: e, done: true}
	}
	return e.completed
}

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// Complete marks the future done and schedules all waiters at the current
// virtual time. Completing twice panics.
func (f *Future) Complete() {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	if f.w0 != nil {
		f.eng.AtHandler(f.eng.now, f.w0)
		f.w0 = nil
	}
	if l := f.waiters; l != nil {
		for _, w := range *l {
			f.eng.AtHandler(f.eng.now, w)
		}
		clear(*l) // release the handlers for GC
		*l = (*l)[:0]
		f.waiters = nil
		f.eng.waiterLists = append(f.eng.waiterLists, l)
	}
}

// Fire completes the future: an event carrying a *Future as its Handler is
// a timed completion.
func (f *Future) Fire() { f.Complete() }

// OnComplete registers fn to run when the future completes (immediately, at
// the current time, if it already has).
func (f *Future) OnComplete(fn func()) { f.OnCompleteHandler(Func(fn)) }

// OnCompleteHandler is OnComplete for a Handler: h fires when the future
// completes, or at the current time if it already has.
func (f *Future) OnCompleteHandler(h Handler) {
	if f.done {
		f.eng.AtHandler(f.eng.now, h)
		return
	}
	f.addWaiter(h)
}

// afterAll is AfterAll's single allocation: the output future plus the
// count of inputs still pending, firing once per completed input.
type afterAll struct {
	Future
	remaining int
}

func (a *afterAll) Fire() {
	a.remaining--
	if a.remaining == 0 {
		a.Complete()
	}
}

// AfterAll returns a future that completes once all fs have completed.
// With no inputs the result is already complete; with exactly one it is
// returned directly (no wrapper future or callback needed).
func AfterAll(e *Engine, fs []*Future) *Future {
	n := len(fs)
	if n == 0 {
		return CompletedFuture(e)
	}
	if n == 1 {
		return fs[0]
	}
	a := &afterAll{remaining: n}
	a.Init(e)
	for _, f := range fs {
		f.OnCompleteHandler(a)
	}
	return &a.Future
}

// A Semaphore is a counting semaphore whose waiters are Handlers, used to
// model bounded resources such as command-queue depth.
type Semaphore struct {
	eng   *Engine
	avail int
	// waiters[head:] are the queued acquirers, oldest first. Dequeuing
	// advances head instead of re-slicing from the front, so the backing
	// array is reused once the queue drains rather than reallocated on
	// every wait/wake cycle.
	waiters []Handler
	head    int
}

// NewSemaphore returns a semaphore with n initially available permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{eng: e, avail: n}
}

// Available reports the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Waiting reports the number of blocked acquirers.
func (s *Semaphore) Waiting() int { return len(s.waiters) - s.head }

// TryAcquire takes a permit without blocking; reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.avail > 0 && s.Waiting() == 0 {
		s.avail--
		return true
	}
	return false
}

// AcquireAsyncHandler fires h (from engine context) once a permit is
// granted: at the current time if one is free and nobody queues ahead,
// otherwise at the Release that hands it over. Grants are FIFO.
func (s *Semaphore) AcquireAsyncHandler(h Handler) {
	if s.avail > 0 && s.Waiting() == 0 {
		s.avail--
		s.eng.AtHandler(s.eng.now, h)
		return
	}
	s.enqueue(h)
}

func (s *Semaphore) enqueue(h Handler) {
	if s.head == len(s.waiters) {
		// queue is empty: rewind so the backing array is reused
		s.waiters = s.waiters[:0]
		s.head = 0
	}
	s.waiters = append(s.waiters, h)
}

// Release returns a permit, waking the oldest waiter if any.
func (s *Semaphore) Release() {
	if s.head < len(s.waiters) {
		w := s.waiters[s.head]
		s.waiters[s.head] = nil // release the handler for GC
		s.head++
		s.eng.AtHandler(s.eng.now, w)
		return
	}
	s.avail++
}

// A FIFOResource models a serially reusable resource (a flash channel bus, a
// die, a DMA engine) with first-come-first-served queueing. Reservations are
// pure arithmetic over a busy-until horizon: a request arriving at time t is
// serviced in [max(t, busyUntil), max(t, busyUntil)+dur].
type FIFOResource struct {
	busyUntil VTime
	busyTotal VTime // accumulated busy time, for utilization reporting
}

// Reserve books dur time on the resource starting no earlier than now.
// It returns the service start and end times; the caller schedules its own
// completion event at end.
func (r *FIFOResource) Reserve(now VTime, dur VTime) (start, end VTime) {
	start = now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end = start + dur
	r.busyUntil = end
	r.busyTotal += dur
	return start, end
}

// BusyUntil returns the time the resource frees up.
func (r *FIFOResource) BusyUntil() VTime { return r.busyUntil }

// BusyTotal returns the cumulative busy time booked on the resource.
func (r *FIFOResource) BusyTotal() VTime { return r.busyTotal }

// IdleAt reports whether the resource is idle at time t.
func (r *FIFOResource) IdleAt(t VTime) bool { return r.busyUntil <= t }
