package core

import (
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
)

// Log is what Base needs of an engine's write-ahead log. Every GroupCommit
// satisfies it, whatever its record type.
type Log interface {
	Stats() JournalStats
	SetCommitHook(fn func(key, version int64))
	Sync(p *sim.Proc)
	WouldOverflow(payload int) bool
	Fits(payload int) bool
	Durable() []int64
	Quiet() bool
}

// Base is the part of a host engine both engines share: the simulation
// kernel, device and host settings, the per-key in-memory version truth,
// the metrics collector, the device-side checkpoint transfers, and the
// checkpoint epochs — the journal engine's checkpoint, the LSM engine's
// memtable flush — which run one at a time and close the query gate while
// LockDuringCheckpoint holds. The journal Engine and lsm.Engine embed it,
// which gives them Device, Sim, Metrics, JournalStats, SetCommitHook,
// Sync, Run, the checkpoint controls of Host and the op stages their op
// machines share.
type Base struct {
	eng *sim.Engine
	dev *ssd.Device
	cfg HostConfig
	// host is the engine embedding the base: Run drives its op machine.
	host Host
	log  Log

	// version is the in-memory (newest) version of each key.
	version []int64

	metrics *Metrics

	// epochName names an epoch's simulated process; work is one epoch's
	// engine-specific part, given the epoch's start, whose duration the
	// metrics record; then, when non-nil, runs after the epoch has closed.
	epochName string
	work      func(p *sim.Proc, start sim.VTime)
	then      func()

	running bool
	epoch   uint64
	done    *sim.Future

	gateClosed bool
	gateOpen   *sim.Future

	// The checkpoint transfers' reused buffers (see Remap), allocated by
	// the first transfer that needs them: two commands' requests each, and
	// a window of in-flight command futures (ISC-A's CoW commands,
	// Baseline's journal reads). Their content is dead between epochs.
	remapBuf []ssd.RemapEntry
	cowBuf   []ssd.CoWPair
	window   []*sim.Future

	// parked counts Run's clients that have not finished (see Parked).
	parked int

	// err, once Fail sets it, ends the run in progress and every later
	// one.
	err error
}

// NewBase returns the shared part of host, an engine over dev that writes
// through log, with idle epochs that run work as simulated process
// epochName. It gives the kernel a lane for events HostIOOverhead ahead:
// the host-side sleeps, paced checkpoint steps and ReadAfter timers.
func NewBase(eng *sim.Engine, dev *ssd.Device, cfg HostConfig, host Host, log Log,
	epochName string, work func(p *sim.Proc, start sim.VTime), then func()) Base {
	eng.DelayLane(HostIOOverhead)
	return Base{
		eng:       eng,
		dev:       dev,
		cfg:       cfg,
		host:      host,
		log:       log,
		version:   make([]int64, cfg.Keys),
		epochName: epochName,
		work:      work,
		then:      then,
	}
}

// Fail ends the run in progress with err: the kernel stops after the
// current event, and Run returns err, now and on every later call. The
// engine embedding the base calls it when the simulated store cannot go
// on (the LSM run area is full); the calling process must not continue.
func (b *Base) Fail(err error) {
	if b.err == nil {
		b.err = err
	}
	b.eng.Stop()
}

// Err returns the error Fail recorded, or nil.
func (b *Base) Err() error { return b.err }

// Parked returns the number of Run's closed-loop clients that have not
// finished. Once a run has returned it is nonzero only if the run failed.
func (b *Base) Parked() int { return b.parked }

// Device exposes the underlying device.
func (b *Base) Device() *ssd.Device { return b.dev }

// Sim exposes the simulation kernel.
func (b *Base) Sim() *sim.Engine { return b.eng }

// Metrics returns the live collector: the one the next measured window
// opens on, or the window now open, and the one epochs record their
// durations into. It is allocated on first use. A collector whose window
// has closed belongs to the run that returned it and is never written
// again, so once that happens the next call allocates a fresh one.
func (b *Base) Metrics() *Metrics {
	if b.metrics == nil || b.metrics.closed {
		b.metrics = NewMetrics()
	}
	return b.metrics
}

// JournalStats returns the write-ahead log's counters.
func (b *Base) JournalStats() JournalStats { return b.log.Stats() }

// SetCommitHook installs fn to observe every logged (key, version) the
// instant its group commit becomes durable, before the waiting client
// wakes. The crash-consistency reference model (internal/check) uses it to
// track the committed prefix.
func (b *Base) SetCommitHook(fn func(key, version int64)) { b.log.SetCommitHook(fn) }

// Sync blocks p until every record logged so far is durable. Update
// already waits for its own commit, so Sync matters only to callers pacing
// explicit durability epochs (the cross-engine equivalence oracle).
func (b *Base) Sync(p *sim.Proc) { b.log.Sync(p) }

// RunLoad runs fill as the load process up to its last event, then sets
// every key to version 1, in memory and durably. The load phase is excluded
// from metrics (a run's window opens at its start).
func (b *Base) RunLoad(fill func(p *sim.Proc)) error {
	b.eng.Go("load", fill)
	if err := b.eng.RunToIdle(); err != nil {
		return fmt.Errorf("core: load: %w", err)
	}
	durable := b.log.Durable()
	for k := range b.version {
		b.version[k] = 1
		durable[k] = 1
	}
	return nil
}

// The op stages below are shared by both engines' op machines (see Ops).
// Each reports whether q parked; the engine's stage then returns, and
// calls the shared stage again on the wake-up.

// AdmitWrite is the admission stage of a write of q.Size() bytes to
// q.Op.Key: it passes the gate, then returns the version the write logs.
// ok is false when the device has degraded to read-only (spare blocks
// exhausted): the write is refused and counted instead of logging an
// update that cannot persist, while reads keep being served. If the
// active log half cannot absorb the record, the write stalls until the
// running epoch frees the alternate half (back-pressure).
func (b *Base) AdmitWrite(q *Query) (version int64, ok, parked bool) {
	if !q.admitting {
		if b.Gate(q) {
			return 0, false, true
		}
		if b.dev.ReadOnly() {
			b.Metrics().RejectedWrites++
			return 0, false, false
		}
		q.admitting = true
	}
	for b.log.WouldOverflow(q.Size()) {
		if q.Wait(b.TriggerCheckpoint()) {
			return 0, false, true
		}
	}
	q.admitting = false
	key := q.Op.Key
	b.version[key]++
	return b.version[key], true, false
}

// AdmitScan is the admission stage of a range read: it passes the gate,
// then clamps q.Op's range to the key space: at least one record, starting
// no later than the last key.
func (b *Base) AdmitScan(q *Query) (parked bool) {
	if b.Gate(q) {
		return true
	}
	op := &q.Op
	op.ScanLen = max(op.ScanLen, 1)
	op.Key = min(op.Key, b.cfg.Keys-1)
	op.ScanLen = uint16(min(int64(op.ScanLen), b.cfg.Keys-op.Key))
	return false
}

// WaitRelease is the stage that waits for each device command q.Await
// added, in turn, then hands them all back to the device for reuse.
func (b *Base) WaitRelease(q *Query) (parked bool) {
	for q.next < len(q.futs) {
		f := q.futs[q.next]
		q.next++
		if q.Wait(f) {
			return true
		}
	}
	for _, f := range q.futs {
		b.dev.Release(f)
	}
	clear(q.futs)
	q.futs, q.next = q.futs[:0], 0
	return false
}

// ---------------------------------------------------------------------------
// checkpoint epochs

// CheckpointRunning reports whether an epoch is in progress.
func (b *Base) CheckpointRunning() bool { return b.running }

// CheckpointEpoch advances at every epoch start and finish.
func (b *Base) CheckpointEpoch() uint64 { return b.epoch }

// Gate is the stage that holds q while query admission is locked
// (checkpoint locking mode).
func (b *Base) Gate(q *Query) (parked bool) {
	for b.gateClosed {
		if q.Wait(b.gateOpen) {
			return true
		}
	}
	return false
}

// TriggerCheckpoint starts an epoch unless one is already running, and
// returns a future completing when the (possibly already running) epoch
// finishes.
func (b *Base) TriggerCheckpoint() *sim.Future {
	if b.running {
		return b.done
	}
	b.running = true
	b.epoch++
	b.done = sim.NewFuture(b.eng)
	done := b.done
	lock := b.cfg.LockDuringCheckpoint
	if lock {
		b.gateClosed = true
		b.gateOpen = sim.NewFuture(b.eng)
	}
	b.eng.Go(b.epochName, func(p *sim.Proc) {
		start := p.Now()
		b.work(p, start)
		b.Metrics().NoteCheckpoint(p.Now() - start)
		b.cfg.Tracer.Emit(p.Now(), trace.KindCheckpointEnd, int64(p.Now()-start), "")
		b.running = false
		b.epoch++
		if lock {
			b.gateClosed = false
			b.gateOpen.Complete()
		}
		done.Complete()
		if b.then != nil {
			b.then()
		}
	})
	return done
}

// ---------------------------------------------------------------------------
// fork

// ForkBase returns a copy of src, the base of host, an engine of src's
// kind on eng and dev that writes through log with the given epoch work
// (see NewBase): src's version truth and epoch count, with idle epochs
// and no metrics collector yet (Metrics allocates one on first use), and
// checkpoint buffers of its own, as many as src has. It
// starts from a copy of src's struct, so a field added to the base is
// copied by default. It fails unless src is quiescent — no client parked,
// no epoch running (so no closed query gate) and nothing pending, in
// flight or being cut in its log — since otherwise parked queries and live
// process stacks reference the state and the copy would be unsound. eng
// must be a fork of src's kernel, which carries the lane NewBase
// registered. src is only read.
func ForkBase(src *Base, eng *sim.Engine, dev *ssd.Device, cfg HostConfig, host Host, log Log,
	work func(p *sim.Proc, start sim.VTime), then func()) (Base, error) {
	switch {
	case src.parked > 0:
		return Base{}, fmt.Errorf("core: snapshot with %d closed-loop clients parked", src.parked)
	case src.running:
		return Base{}, fmt.Errorf("core: snapshot during a %s", src.epochName)
	case !src.log.Quiet():
		return Base{}, fmt.Errorf("core: snapshot with log activity in flight")
	case int64(len(src.version)) != cfg.Keys:
		return Base{}, fmt.Errorf("core: fork of %d keys into an engine with %d", len(src.version), cfg.Keys)
	}
	b := *src
	b.eng, b.dev, b.cfg, b.host, b.log, b.work, b.then = eng, dev, cfg, host, log, work, then
	b.metrics = nil
	b.version = slices.Clone(src.version)
	b.remapBuf, b.cowBuf, b.window = reserve(src.remapBuf), reserve(src.cowBuf), reserve(src.window)
	// The last epoch's futures have completed; idle epochs hold none.
	b.done, b.gateOpen = nil, nil
	return b, nil
}

// scratch returns the first n elements of *buf, first allocating n for it
// if it holds fewer.
func scratch[T any](buf *[]T, n int) []T {
	if len(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// reserve returns a fresh scratch buffer as long as buf, or nil for none.
func reserve[T any](buf []T) []T {
	if buf == nil {
		return nil
	}
	return make([]T, len(buf))
}
