package core

import (
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
)

// LogRecord is one record of a GroupCommit log.
type LogRecord interface {
	// Commit marks the record durable and returns the key and version it
	// logs. Only the group commit's completion handler calls it.
	Commit() (key, version int64)
}

// LogFormat is what differs between the engines' write-ahead logs: how a
// batch of records is laid out on the device.
type LogFormat[R LogRecord] interface {
	// Reserve upper-bounds the bytes a record of payload bytes occupies
	// once laid out.
	Reserve(payload int) int64
	// Layout assigns every batch record its device placement starting at
	// the absolute offset base, counts it in st, and returns the batch's
	// laid-out length.
	Layout(batch []R, base int64, st *JournalStats) int64
}

// LogConfig configures a GroupCommit.
type LogConfig struct {
	// Keys sizes the durable-version vector.
	Keys int64
	// HalfBytes is the capacity of each of the two on-device halves; half
	// h starts at device offset h*HalfBytes.
	HalfBytes int64
	// Slack is the free space WouldOverflow keeps beyond a record's
	// Reserve.
	Slack int64
	// CommitSite fires when a batch's flush completes; CutSite fires when
	// a cut has drained the old half (inject.NoSite for none).
	CommitSite, CutSite inject.Site

	Tracer   *trace.Tracer
	Injector *inject.Injector
}

// GroupCommit is the double-buffered write-ahead log both host engines
// journal through: two on-device halves, a pending batch, and group
// commits chained so that records arriving while one batch is written and
// flushed form the next batch. A cut rotates onto the alternate half
// without blocking appends (the paper's prebuilt "new journal area and
// JMT").
//
// The records live in the engine's own append-only log for the active
// half (the JMT's entry log, or a WAL half's record slice); the group
// commit holds a pointer to it and the index pendFrom where the pending
// batch begins, so a batch is always the suffix (*log)[pendFrom:].
type GroupCommit[R LogRecord] struct {
	eng    *sim.Engine
	dev    *ssd.Device
	format LogFormat[R]
	cfg    LogConfig

	active int   // half in use
	head   int64 // bytes laid out in the active half

	log *[]R
	// pendBytes upper-bounds the bytes the pending batch will need once
	// laid out.
	pendFrom  int
	pendBytes int64
	nextBatch *sim.Future
	// spare is a completed batch future, kept for the next batch.
	spare          *sim.Future
	commitInFlight bool
	inFlightDone   *sim.Future
	// The batch being written: its records, laid-out length and device
	// flush, read by the flush's completion handler (flushed).
	// commitInFlight serialises batches, so one set suffices.
	inFlight      []R
	inFlightLen   int64
	inFlightFlush *sim.Future
	// cutting suspends commit auto-chaining while a cut rotates the
	// halves, so the old half's final batch can be flushed without new
	// arrivals extending it forever.
	cutting bool

	// durable is the per-key newest committed version.
	durable []int64
	// onCommit, when set, observes every record the moment its group
	// commit becomes durable (before client wakeup). The crash-consistency
	// harness's reference model hangs off this hook.
	onCommit func(key, version int64)

	stats JournalStats
}

// NewGroupCommit returns a log over dev's two halves whose active half's
// records accumulate in *log.
func NewGroupCommit[R LogRecord](eng *sim.Engine, dev *ssd.Device, format LogFormat[R], log *[]R, cfg LogConfig) *GroupCommit[R] {
	return &GroupCommit[R]{
		eng:      eng,
		dev:      dev,
		format:   format,
		cfg:      cfg,
		log:      log,
		pendFrom: len(*log),
		durable:  make([]int64, cfg.Keys),
	}
}

// SetCommitHook installs fn to observe every record the instant its group
// commit becomes durable.
func (g *GroupCommit[R]) SetCommitHook(fn func(key, version int64)) { g.onCommit = fn }

// Durable returns the live per-key durable-version vector (not a copy).
func (g *GroupCommit[R]) Durable() []int64 { return g.durable }

// Active returns the half in use.
func (g *GroupCommit[R]) Active() int { return g.active }

// HalfStart returns the absolute device offset of half h (0 or 1).
func (g *GroupCommit[R]) HalfStart(h int) int64 { return int64(h) * g.cfg.HalfBytes }

// UsedFrac returns the active half's fill fraction including the pending
// batch.
func (g *GroupCommit[R]) UsedFrac() float64 {
	return float64(g.head+g.pendBytes) / float64(g.cfg.HalfBytes)
}

// WouldOverflow reports whether logging a record of payload bytes risks
// exceeding the active half.
func (g *GroupCommit[R]) WouldOverflow(payload int) bool {
	return g.head+g.pendBytes+g.format.Reserve(payload)+g.cfg.Slack > g.cfg.HalfBytes
}

// Fits reports whether a record of payload bytes fits an empty half: for
// a larger one WouldOverflow holds forever, however many cuts free a half.
func (g *GroupCommit[R]) Fits(payload int) bool {
	return g.format.Reserve(payload)+g.cfg.Slack <= g.cfg.HalfBytes
}

// Stats returns a snapshot of the log's counters.
func (g *GroupCommit[R]) Stats() JournalStats { return g.stats }

// hasPending reports whether any record is buffered.
func (g *GroupCommit[R]) hasPending() bool { return g.pendFrom < len(*g.log) }

// pending returns the buffered records.
func (g *GroupCommit[R]) pending() []R {
	l := *g.log
	return l[g.pendFrom:len(l):len(l)]
}

// Queue accounts a record of payload bytes the engine has just appended to
// its log, and returns a future completing when the record's group commit
// is durable. The engine then calls StartCommit.
//
// The future belongs to the log: a holder may wait on it or register a
// handler until it completes, and must not touch it after its wake-up,
// since the log then resets it with Future.Init as a later batch's future.
func (g *GroupCommit[R]) Queue(payload int) *sim.Future {
	g.pendBytes += g.format.Reserve(payload)
	g.stats.Logs++
	g.stats.PayloadBytes += uint64(payload)
	if g.nextBatch == nil {
		if f := g.spare; f != nil {
			g.spare = nil
			*f = sim.Future{}
			f.Init(g.eng)
			g.nextBatch = f
		} else {
			g.nextBatch = sim.NewFuture(g.eng)
		}
	}
	return g.nextBatch
}

// StartCommit lays the pending batch out in the active half, writes it with
// one device write, and flushes — unless a commit is in flight or a cut
// holds commits back, in which case the batch waits to be chained.
func (g *GroupCommit[R]) StartCommit() {
	if g.commitInFlight || g.cutting || !g.hasPending() {
		return
	}
	batch := g.pending()
	fut := g.nextBatch
	g.pendFrom, g.pendBytes = len(*g.log), 0
	g.nextBatch = nil

	base := g.HalfStart(g.active) + g.head
	g.head += g.commitBatch(batch, fut, base)
	if g.head > g.cfg.HalfBytes {
		panic(fmt.Sprintf("core: log half overflow (%d > %d); soft trigger misconfigured",
			g.head, g.cfg.HalfBytes))
	}
}

// commitBatch lays batch out at the absolute offset base, issues the device
// write + flush, and returns the laid-out length. On flush completion
// (flushed) the batch's records are durable.
func (g *GroupCommit[R]) commitBatch(batch []R, fut *sim.Future, base int64) int64 {
	g.commitInFlight = true
	g.inFlightDone = fut

	length := g.format.Layout(batch, base, &g.stats)
	g.stats.Commits++
	g.stats.StoredBytes += uint64(length)

	// The flush's completion covers the write's durability: commands are
	// serviced FIFO on the link and the flush forces the written pages out.
	g.dev.Release(g.dev.Write(base, length, ssd.AreaJournal))
	g.inFlight, g.inFlightLen = batch, length
	g.inFlightFlush = g.dev.Flush(ssd.AreaJournal)
	g.inFlightFlush.OnCompleteHandler((*flushDone[R])(g))
	return length
}

// flushDone is the Handler of a batch's flush completion.
type flushDone[R LogRecord] GroupCommit[R]

func (h *flushDone[R]) Fire() { (*GroupCommit[R])(h).flushed() }

// flushed runs when the in-flight batch's flush completes: its records are
// durable, their waiters wake, and the next pending batch is chained
// (unless a cut is in progress).
func (g *GroupCommit[R]) flushed() {
	batch, fut := g.inFlight, g.inFlightDone
	g.dev.Release(g.inFlightFlush)
	g.inFlight, g.inFlightFlush = nil, nil
	g.cfg.Tracer.Emit(g.eng.Now(), trace.KindJournalCommit, g.inFlightLen, "")
	for _, r := range batch {
		key, version := r.Commit()
		if version > g.durable[key] {
			g.durable[key] = version
		}
		if g.onCommit != nil {
			g.onCommit(key, version)
		}
	}
	g.cfg.Injector.Hit(g.cfg.CommitSite)
	g.commitInFlight = false
	g.inFlightDone = nil
	fut.Complete()
	g.spare = fut
	g.StartCommit()
}

// Cut atomically rotates logging onto the alternate half — new appends
// immediately target the fresh half and go to the engine's fresh (empty)
// log — then flushes the old half's tail: the in-flight batch plus any
// records still pending. It returns once the old half is fully durable,
// with the old half's index and laid-out bytes.
func (g *GroupCommit[R]) Cut(p *sim.Proc, fresh *[]R) (half int, used int64) {
	g.cutting = true
	oldHalf, oldHead := g.active, g.head
	oldPending, oldFut := g.pending(), g.nextBatch

	g.log = fresh
	g.active ^= 1
	g.head = 0
	g.pendFrom, g.pendBytes = len(*fresh), 0
	g.nextBatch = nil

	// wait for the batch already being written to the old half
	for g.commitInFlight {
		p.Wait(g.inFlightDone)
	}
	// flush the records that were pending but not yet laid out
	if len(oldPending) > 0 {
		base := g.HalfStart(oldHalf) + oldHead
		oldHead += g.commitBatch(oldPending, oldFut, base)
		if oldHead > g.cfg.HalfBytes {
			panic("core: log half overflow during a cut")
		}
		for g.commitInFlight {
			p.Wait(g.inFlightDone)
		}
	}
	g.cutting = false
	g.stats.HalfSwitches++
	g.cfg.Tracer.Emit(g.eng.Now(), trace.KindJournalSwitch, int64(oldHalf), "")
	g.cfg.Injector.Hit(g.cfg.CutSite)
	// resume group commit on the new half
	g.StartCommit()
	return oldHalf, oldHead
}

// Sync blocks p until every record appended so far is durable.
func (g *GroupCommit[R]) Sync(p *sim.Proc) {
	for g.commitInFlight || g.hasPending() {
		if g.inFlightDone != nil {
			p.Wait(g.inFlightDone)
		} else {
			p.Sleep(sim.Microsecond) // batch pending behind a cut
		}
	}
}

// Quiet reports whether nothing is pending, in flight or being cut — the
// only instants a fork may copy the log.
func (g *GroupCommit[R]) Quiet() bool {
	return !g.commitInFlight && !g.cutting && !g.hasPending()
}

// ForkGroupCommit returns a copy of src on eng and dev, laid out by format,
// over log, the forking engine's copy of the active half's records: src's
// placement, counters and durable versions, with no commit hook. It starts
// from a copy of src's struct, so a field added to the log is copied by
// default. src must be Quiet, so nothing is pending or in flight; it is
// only read.
func ForkGroupCommit[R LogRecord](eng *sim.Engine, dev *ssd.Device, format LogFormat[R], log *[]R, src *GroupCommit[R]) *GroupCommit[R] {
	g := new(GroupCommit[R])
	*g = *src
	g.eng, g.dev, g.format, g.log, g.onCommit = eng, dev, format, log, nil
	if src.spare != nil {
		// A completed batch future's content is dead; any future serves.
		g.spare = new(sim.Future)
	}
	g.durable = slices.Clone(src.durable)
	return g
}
