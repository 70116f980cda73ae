package shard

import (
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// shardRunner drives one engine+SSD stack as an event domain. Everything it
// touches — its DB's private sim.Engine, its queue, its collector — is
// owned by this shard alone; the coordinator writes the staged arrival
// slice and cut schedule strictly before a window runs and reads the
// accounting strictly after, so a window's execution shares no mutable
// state across shards and parallel windows are race-free by construction.
type shardRunner struct {
	id   int
	db   *checkin.DB
	en   checkin.HostEngine
	eng  *sim.Engine
	base sim.VTime // domain clock at run start; arrivals are offsets from it

	// FIFO of admitted, not-yet-claimed ops. head indexes the next op; the
	// backing array recycles on a full drain and compacts whenever the
	// consumed prefix dominates, so memory is bounded by the peak backlog,
	// not the run length.
	queue []pendingOp
	head  int
	sem   *sim.Semaphore // one permit per queued op

	paused bool        // global-consistent cut: dequeue stalled
	resume *sim.Future // completes when the pausing checkpoint finishes

	// arrival slice staged for the current window (keys already local)
	arr    []workload.Arrival
	arrIdx int

	// m is the shard's measured window, opened on its stack's collector:
	// every completion is one NoteQuery, so m.Queries counts the ops done.
	m        *core.Metrics
	tenants  []tenantAcct
	queued   uint64
	qPeak    int
	lastDone sim.VTime // completion offset of the latest finished op

	loadWall time.Duration // snapshot-fork (or direct load) wall time
	runWall  time.Duration // cumulative wall time inside RunUntil windows
}

type pendingOp struct {
	at     sim.VTime // absolute arrival time on this shard's clock
	tenant int32
	// epoch is the low half of the host's checkpoint epoch at arrival; it
	// fills the padding before op, so the record stays 32 bytes.
	epoch uint32
	op    workload.Op // Key is shard-local
}

// tenantAcct is one shard's streaming accounting for one tenant, which the
// SLO table reads. The histogram is an O(1) sketch; merging across shards
// in shard order at report time is the only cross-shard stats operation.
type tenantAcct struct {
	done   uint64
	allLat stats.Histogram
}

func newShardRunner(id int, db *checkin.DB, tenants int, workers int) *shardRunner {
	s := &shardRunner{
		id:      id,
		db:      db,
		en:      db.Host(),
		eng:     db.Sim(),
		tenants: make([]tenantAcct, tenants),
	}
	s.base = s.eng.Now()
	s.m = s.en.Metrics()
	s.m.BeginWindow(s.en.Device(), s.en.JournalStats(), s.base)
	s.sem = sim.NewSemaphore(s.eng, 0)
	// A fixed worker pool (rather than one query per op) bounds the shard's
	// concurrency toward its device — the front-end's max in-flight
	// requests — and keeps memory independent of the op count, which is
	// what lets a 10^7-op open-loop run complete in bounded memory.
	ws := make([]worker, workers)
	for i := range ws {
		ws[i].s = s
		s.eng.AtHandler(s.eng.Now(), &ws[i])
	}
	return s
}

// worker is one of a shard's service slots: a kernel handler the kernel
// fires at its start and at every wake-up — a permit grant, the end of a
// global pause, or a wake-up of its query. Each permit is one queued op,
// which the worker dequeues and drives through its own Query, serving ops
// back to back until the semaphore runs dry.
type worker struct {
	core.Query
	s *shardRunner
	// held is set while the worker holds a permit, or waits for one, that
	// it has not spent on an op yet; busy while po's query is in flight.
	held bool
	busy bool
	po   pendingOp
}

func (w *worker) Fire() {
	s := w.s
	for {
		if w.busy {
			if !w.Resume(s.en, s.eng, w) {
				return
			}
			w.busy = false
			s.finish(w.po)
		}
		if !w.held {
			w.held = true
			if !s.sem.TryAcquire() {
				s.sem.AcquireAsyncHandler(w)
				return
			}
		}
		if s.paused {
			s.resume.OnCompleteHandler(w)
			return
		}
		w.held, w.busy = false, true
		w.po = s.dequeue()
		w.Begin(w.po.op)
	}
}

// dequeue takes the oldest queued op; the caller holds its permit, so the
// queue is not empty.
func (s *shardRunner) dequeue() pendingOp {
	po := s.queue[s.head]
	s.queue[s.head] = pendingOp{}
	s.head++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	} else if s.head >= 4096 && s.head*2 >= len(s.queue) {
		// A persistently backlogged shard may never fully drain; sliding
		// the live suffix down whenever the consumed prefix dominates
		// keeps the array O(backlog) instead of O(ops since the last full
		// drain). Amortized O(1) per op.
		n := copy(s.queue, s.queue[s.head:])
		s.queue = s.queue[:n]
		s.head = 0
	}
	return po
}

// finish records a completed op.
func (s *shardRunner) finish(po pendingOp) {
	now := s.eng.Now()
	// Open-loop latency: completion minus *arrival*, so queueing delay —
	// the thing overload and checkpoint stalls actually cost a client —
	// is part of every sample. The op overlapped a checkpoint over the same
	// interval: one runs now, or one started or ended since it arrived.
	lat := now - po.at
	during := s.en.CheckpointRunning() || uint32(s.en.CheckpointEpoch()) != po.epoch
	s.m.NoteQuery(po.op, lat, during)
	ta := &s.tenants[po.tenant]
	ta.done++
	ta.allLat.Record(uint64(lat))
	if off := now - s.base; off > s.lastDone {
		s.lastDone = off
	}
}

// stage installs the window's admitted arrivals (sorted by time, keys
// already local) and arms the pacer. Called by the coordinator between
// windows, never while the domain runs.
func (s *shardRunner) stage(arr []workload.Arrival) {
	s.arr = arr
	s.arrIdx = 0
	if len(arr) > 0 {
		s.eng.AtHandler(s.base+arr[0].At, (*arrivals)(s))
	}
}

// arrivals is the Handler of the shard's arrival event; the conversion
// from *shardRunner allocates nothing, unlike the method value s.pace.
type arrivals shardRunner

func (a *arrivals) Fire() { (*shardRunner)(a).pace() }

// pace is the single self-rescheduling arrival event: it enqueues every
// staged arrival whose time has come and re-arms itself at the next one.
// One event chain per window regardless of arrival count.
func (s *shardRunner) pace() {
	now := s.eng.Now()
	for s.arrIdx < len(s.arr) && s.base+s.arr[s.arrIdx].At <= now {
		a := s.arr[s.arrIdx]
		s.arrIdx++
		s.queue = append(s.queue, pendingOp{at: s.base + a.At, tenant: a.Tenant,
			epoch: uint32(s.en.CheckpointEpoch()), op: a.Op})
		s.queued++
		if backlog := len(s.queue) - s.head; backlog > s.qPeak {
			s.qPeak = backlog
		}
		s.sem.Release()
	}
	if s.arrIdx < len(s.arr) {
		s.eng.AtHandler(s.base+s.arr[s.arrIdx].At, (*arrivals)(s))
	}
}

// cut is one scheduled checkpoint trigger.
type cut struct {
	at    sim.VTime // absolute time on the shard's clock
	pause bool      // global-consistent cut: stall dequeue until it completes
}

// scheduleCuts registers the window's checkpoint triggers. A plain cut
// fires TriggerCheckpoint and lets service continue against the journal
// snapshot; a pausing cut additionally stalls op dequeue until the
// checkpoint completes, so the cut captures a globally consistent op
// frontier — arrivals keep queueing, and the backlog drains afterward,
// which is exactly the tail-latency cost the scheduling experiment
// measures.
func (s *shardRunner) scheduleCuts(cuts []cut) {
	for _, c := range cuts {
		c := c
		if !c.pause {
			s.eng.At(c.at, func() { s.en.TriggerCheckpoint() })
			continue
		}
		s.eng.At(c.at, func() {
			if !s.paused {
				s.paused = true
				s.resume = sim.NewFuture(s.eng)
			}
			res := s.resume
			// Overlapping cuts share one running checkpoint future, so this
			// callback can fire once per cut on the same completion; only the
			// first may complete the resume future (hence the paused check),
			// and a cut scheduled after a later re-pause must not complete
			// the newer future (hence the identity check).
			s.en.TriggerCheckpoint().OnComplete(func() {
				if s.paused && s.resume == res {
					s.paused = false
					res.Complete()
				}
			})
		})
	}
}

// run executes the domain up to deadline (absolute on the shard's clock),
// accumulating wall time for the imbalance report.
func (s *shardRunner) run(deadline sim.VTime) {
	start := time.Now()
	s.eng.RunUntil(deadline)
	s.runWall += time.Since(start)
}

// idle reports whether the shard has fully drained: no queued or in-flight
// ops and no checkpoint in progress.
func (s *shardRunner) idle() bool {
	return s.m.Queries == s.queued && !s.en.CheckpointRunning()
}
