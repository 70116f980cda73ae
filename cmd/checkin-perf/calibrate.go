package main

import (
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/sim"
)

// Wall-clock metrics are calibrated against host speed. On a shared host the
// same work can take twice as long from one minute to the next, and the
// guest cannot see why: its CPU time grows with its wall time. So while the
// benchmark measures, a probe times rounds of a fixed kernel that shares no
// code with the system under test. Each wall-clock metric is then scaled by
// calNominal / (mean round time), which expresses it in seconds of a host
// that runs one round in calNominal.
const calNominal = 500 * time.Microsecond

// probeGap is the wall time between probe rounds. A round takes about
// 0.5 ms, so probing costs about 5% of one CPU.
const probeGap = 10 * time.Millisecond

// calKernel is the probe's fixed unit of work: a discrete-event loop over a
// binary heap of closures, with map updates and goroutine hand-offs over
// unbuffered channels — the simulator's own hot-path ingredients.
type calKernel struct {
	h          calHeap
	table      map[uint64]uint64
	seq, now   uint64
	x          uint64
	ping, pong chan struct{}
}

type calEvent struct {
	at, seq uint64
	fn      func()
}

// calHeap is a binary min-heap on (at, seq), written out so that pushes and
// pops do not allocate.
type calHeap []calEvent

func (h calHeap) less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}

func (h *calHeap) push(e calEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *calHeap) pop() calEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// newCalKernel starts the kernel's hand-off partner; close stops it.
func newCalKernel() *calKernel {
	k := &calKernel{table: make(map[uint64]uint64, 1<<12), x: 88172645463325252,
		ping: make(chan struct{}), pong: make(chan struct{})}
	go func() {
		for range k.ping {
			k.pong <- struct{}{}
		}
		close(k.pong)
	}()
	for range 64 {
		k.schedule()
	}
	return k
}

func (k *calKernel) close() {
	close(k.ping)
	<-k.pong
}

func (k *calKernel) schedule() {
	k.seq++
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	k.table[k.x&(1<<12-1)] += k.x
	k.h.push(calEvent{at: k.now + k.x%1000, seq: k.seq, fn: k.schedule})
}

// run executes one fixed round of the kernel and returns its duration.
func (k *calKernel) run() time.Duration {
	start := time.Now()
	for n := range 1000 {
		e := k.h.pop()
		k.now = e.at
		if n%4 == 0 {
			k.ping <- struct{}{}
			<-k.pong
		}
		e.fn()
	}
	return time.Since(start)
}

// rounds accumulates probe rounds between laps.
type rounds struct {
	total time.Duration
	n     int
}

func (r *rounds) add(d time.Duration) { r.total += d; r.n++ }

// calibrator times kernel rounds while the benchmark measures. lap returns
// the mean round time since the previous lap, the wall time the rounds took
// out of the measured work, and the simulator events the probe added.
type calibrator interface {
	lap() (mean, spent time.Duration, events uint64)
	stop()
}

// pacedProbe runs a kernel round whenever the measured work calls poll and
// probeGap of wall time has passed since the last round, so the rounds run
// on the work's own thread and at its own moments.
type pacedProbe struct {
	k       *calKernel
	stopped bool
	last    time.Time
	r       rounds
}

func newPacedProbe() pacedProbe { return pacedProbe{k: newCalKernel(), last: time.Now()} }

func (p *pacedProbe) poll() {
	if !p.stopped && time.Since(p.last) >= probeGap {
		p.r.add(p.k.run())
		p.last = time.Now()
	}
}

func (p *pacedProbe) lapRounds() (mean, spent time.Duration) {
	r := p.r
	spent = r.total
	if r.n == 0 { // a lap shorter than probeGap: time one round after it
		r.add(p.k.run())
	}
	p.r, p.last = rounds{}, time.Now()
	return r.total / time.Duration(r.n), spent
}

func (p *pacedProbe) stop() {
	if !p.stopped {
		p.stopped = true
		p.k.close()
	}
}

// loopProbe polls from inside a simulation: a no-op event recurs every
// loopTick of virtual time. The events change no simulated state and keep
// the relative order of all other events; lap reports how many ran.
type loopProbe struct {
	pacedProbe
	eng   *sim.Engine
	ticks uint64
}

const loopTick = sim.Millisecond

func startLoopProbe(eng *sim.Engine) *loopProbe {
	p := &loopProbe{pacedProbe: newPacedProbe(), eng: eng}
	eng.Schedule(loopTick, p.tick)
	return p
}

func (p *loopProbe) tick() {
	if p.stopped {
		return // the last queued tick fires after stop
	}
	p.ticks++
	p.poll()
	p.eng.Schedule(loopTick, p.tick)
}

func (p *loopProbe) lap() (mean, spent time.Duration, events uint64) {
	mean, spent = p.lapRounds()
	events, p.ticks = p.ticks, 0
	return mean, spent, events
}

// sizerProbe polls from the sharded front end, whose engines the benchmark
// cannot reach: it is the arrival generator's record-size function, which
// the coordinator goroutine calls once per arrival between the shards'
// parallel windows. It returns the generator's default size, 1 KiB, so the
// arrival stream is unchanged.
type sizerProbe struct {
	pacedProbe
	checkin.Sizer
}

func newSizerProbe() *sizerProbe {
	return &sizerProbe{pacedProbe: newPacedProbe(), Sizer: checkin.FixedRecords(1024)}
}

func (p *sizerProbe) SizeOf(key int64) int {
	p.poll()
	return p.Sizer.SizeOf(key)
}

func (p *sizerProbe) lap() (mean, spent time.Duration, events uint64) {
	mean, spent = p.lapRounds()
	return mean, spent, 0
}
