package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// stamp is one event's place in the dispatch order.
type stamp struct {
	at  VTime
	seq uint64
}

func (s stamp) cmp(o stamp) int {
	if c := cmp.Compare(s.at, o.at); c != 0 {
		return c
	}
	return cmp.Compare(s.seq, o.seq)
}

// laneOracle drives an engine with a seeded mix of every way an event
// enters the kernel — now-events, delay-lane timers, explicit-lane events
// in and out of order, plain heap events, reserved completions injected
// later, process sleeps and Pace steps — and keeps the reference model:
// the set of pending events, each stamped with the (at, seq) a single heap
// would order it by. Every dispatch must be the least stamp pending.
type laneOracle struct {
	t       *testing.T
	e       *Engine
	rng     *RNG
	lanes   []Lane
	horizon []VTime // per explicit lane: the instant of its last in-order event

	pending               []stamp // reference: events queued in the kernel
	log                   []stamp // dispatch order since the last check
	fired                 int
	budget                int // events the generator may still create
	fallbacks, lanePushes int
}

// oracleDelays are the delays with a lane (0 is the now-lane); oracleGaps
// add delays no lane takes.
var (
	oracleDelays = []VTime{0, 10, 25}
	oracleGaps   = []VTime{0, 3, 10, 17, 25, 40}
)

func newLaneOracle(t *testing.T, seed int64) *laneOracle {
	o := &laneOracle{t: t, e: NewEngine(), rng: NewRNG(seed), budget: 4000}
	for _, d := range oracleDelays[1:] {
		o.e.DelayLane(d)
	}
	o.e.DelayLane(10) // registering twice is a no-op
	for range 2 {
		o.lanes = append(o.lanes, o.e.NewLane())
		o.horizon = append(o.horizon, 0)
	}
	return o
}

// expect adds the event the kernel is about to queue under the next seq.
func (o *laneOracle) expect(at VTime) {
	o.pending = append(o.pending, stamp{at, o.e.seq + 1})
}

// dispatched checks that the running event is the least pending one and
// retires it from the reference.
func (o *laneOracle) dispatched() {
	got := stamp{o.e.now, o.e.cur}
	i := slices.IndexFunc(o.pending, func(s stamp) bool { return s == got })
	if i < 0 {
		o.t.Fatalf("dispatched %v, which the reference never queued", got)
	}
	if least := slices.MinFunc(o.pending, stamp.cmp); least != got {
		o.t.Fatalf("dispatch %d: ran %v while %v was pending", o.fired, got, least)
	}
	o.pending = slices.Delete(o.pending, i, i+1)
	o.log = append(o.log, got)
	o.fired++
}

// Fire is every callback event's handler: check, then schedule more.
func (o *laneOracle) Fire() {
	o.dispatched()
	o.spawn(o.rng.Intn(3))
}

// injector fires a reserved completion's injection at the reserving
// instant, so the completion is queued before the clock can pass it.
type injector struct {
	o   *laneOracle
	at  VTime
	seq uint64
}

func (in *injector) Fire() {
	in.o.dispatched()
	in.o.pending = append(in.o.pending, stamp{in.at, in.seq})
	in.o.e.InjectCompletion(in.at, in.seq, in.o)
}

// spawn schedules n events of random kinds from engine context.
func (o *laneOracle) spawn(n int) {
	e := o.e
	for ; n > 0 && o.budget > 0; n-- {
		o.budget--
		switch o.rng.Intn(6) {
		case 0: // now-event
			o.expect(e.now)
			e.AtHandler(e.now, o)
		case 1: // a delay lane's timer
			at := e.now + oracleDelays[o.rng.Intn(len(oracleDelays))]
			o.expect(at)
			e.AtHandler(at, o)
		case 2: // plain heap event, sometimes far ahead
			at := e.now + VTime(1+o.rng.Intn(60))
			o.expect(at)
			e.AtHandler(at, o)
		case 3, 4: // explicit lane: a FIFO horizon, sometimes out of order
			k := o.rng.Intn(len(o.lanes))
			l := &e.lanes[o.lanes[k]]
			heap, queued := len(e.events), l.n
			var at VTime
			if o.rng.Intn(5) == 0 {
				at = e.now + VTime(o.rng.Intn(20)) // may precede the lane's newest
			} else {
				o.horizon[k] = max(o.horizon[k], e.now) + VTime(o.rng.Intn(15))
				at = o.horizon[k]
			}
			outOfOrder := queued > 0 && l.back().at > at
			o.expect(at)
			e.AtLane(o.lanes[k], at, o)
			switch {
			case outOfOrder && len(e.events) != heap+1:
				o.t.Fatalf("out-of-order lane push at %v did not fall back to the heap", at)
			case !outOfOrder && l.n != queued+1:
				o.t.Fatalf("in-order lane push at %v did not queue in the lane", at)
			case outOfOrder:
				o.fallbacks++
			default:
				o.lanePushes++
			}
		case 5: // completion reserved now, injected by a now-event
			in := &injector{o: o, at: e.now + VTime(1+o.rng.Intn(30))}
			in.seq = e.ReserveSeq()
			o.expect(e.now)
			e.AtHandler(e.now, in)
		}
	}
}

// proc is a simulated process alternating sleeps and Pace loops whose
// steps schedule events of their own.
func (o *laneOracle) proc(p *Proc) {
	o.dispatched() // the start event
	for r := 0; r < 12; r++ {
		gap := oracleGaps[o.rng.Intn(len(oracleGaps))]
		if o.rng.Intn(2) == 0 {
			o.expect(p.Now() + gap)
			p.Sleep(gap)
			o.dispatched()
			o.spawn(1)
			continue
		}
		n := 1 + o.rng.Intn(4)
		o.expect(p.Now() + gap)
		p.Pace(n, gap, func(k int) {
			o.dispatched()
			o.spawn(o.rng.Intn(2))
			if k+1 < n {
				o.expect(o.e.now + gap) // the next step's event, drawn next
			}
		})
	}
}

// run drives the engine in random RunUntil slices, checking the kernel's
// pending count against the reference after each.
func (o *laneOracle) run(full bool) {
	for o.e.Pending() > 0 {
		deadline := o.e.Now() + VTime(o.rng.Intn(50))
		if full && o.rng.Intn(4) == 0 {
			deadline = maxVTime
		}
		o.e.RunUntil(deadline)
		if got, want := o.e.Pending(), len(o.pending); got != want {
			o.t.Fatalf("kernel holds %d events, reference %d", got, want)
		}
		if !full && o.e.LiveProcs() == 0 {
			return
		}
	}
}

// checkLog: the dispatch log is the reference sort of what ran, each
// (at, seq) once.
func (o *laneOracle) checkLog() {
	for i := 1; i < len(o.log); i++ {
		if o.log[i-1].cmp(o.log[i]) >= 0 {
			o.t.Fatalf("dispatch %d ran %v after %v", i, o.log[i], o.log[i-1])
		}
	}
	o.log = o.log[:0]
}

// TestLaneDispatchOracle checks on seeded random mixes that the lanes
// change no dispatch: whichever container an event waits in, every
// dispatch is the (at, seq)-least pending event, as with a single heap.
// Midway, the oracle moves to a fork of an earlier state taken while events
// wait in the heap and every lane: the fork starts with none of them, at
// the rewound clock, and its lanes serve the rewound timeline in order.
func TestLaneDispatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			o := newLaneOracle(t, seed)
			e := o.e
			st := e.State()
			for i := range 3 {
				o.expect(e.now) // the process's start event
				e.Go(fmt.Sprint("proc-", i), o.proc)
			}
			o.spawn(5)
			o.run(false)
			o.checkLog()

			// Fork with events queued in the heap and in every lane.
			o.spawn(30)
			for k, l := range o.lanes {
				o.expect(e.now + VTime(50+k))
				e.AtLane(l, e.now+VTime(50+k), o)
			}
			queued := 0
			for i := range e.lanes {
				if e.lanes[i].n > 0 {
					queued++
				}
			}
			if queued < 3 || len(e.events) == 0 {
				t.Fatalf("fork point holds events in %d lanes and %d in the heap: no test of leaving them", queued, len(e.events))
			}
			o.e = e.Fork(st)
			e = o.e
			o.pending = o.pending[:0]
			clear(o.horizon)
			if e.Pending() != 0 {
				t.Fatalf("the fork holds %d events", e.Pending())
			}
			o.budget = 4000
			o.expect(e.now)
			e.AtHandler(e.now, o)
			o.run(true)
			o.checkLog()
			if len(o.pending) != 0 {
				t.Fatalf("%d reference events never ran", len(o.pending))
			}
			if o.fallbacks == 0 || o.lanePushes == 0 {
				t.Fatalf("explicit lanes took %d in-order and %d fallback pushes: mix too narrow", o.lanePushes, o.fallbacks)
			}
		})
	}
}
