package lsm

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
)

// walRec is one write-ahead-log record: a key's new version logged before
// the memtable acknowledges the write. The record's seq orders it against
// the manifest floor — records at or below the floor are fully covered by
// published runs and no longer participate in recovery.
type walRec struct {
	seq     int64
	key     int64
	version int64
	payload int   // raw value bytes
	stored  int   // bytes occupied in the WAL once laid out
	off     int64 // absolute device offset once laid out
	deleted bool  // tombstone record

	committed bool
}

// wal is the double-buffered write-ahead log: an in-memory record buffer
// with group commit over two on-device halves. The halves rotate at
// memtable seal — exactly the journal engine's half discipline
// (core/journal.go) — so one flush epoch's records occupy one extent that
// deallocates wholesale once the manifest publishes the flushed run.
//
// Record format follows the strategy the engine runs under: Check-In's
// sector-aligned format rounds every record up to host sectors (remappable
// in place); the conventional format packs an inline header plus the raw
// payload densely (remap degrades to read-merge-write, the ISC-C shape).
type wal struct {
	eng *sim.Engine
	dev *ssd.Device

	halfBytes int64
	aligned   bool
	header    int64

	active int
	head   int64
	seq    int64

	pending []*walRec
	// pendBytes is the WAL bytes the pending records will occupy once laid
	// out, kept as a running sum because every Update reads it twice.
	pendBytes      int64
	nextBatch      *sim.Future
	commitInFlight bool
	inFlightDone   *sim.Future
	sealing        bool

	// onCommit observes every record the moment its group commit becomes
	// durable (before client wakeup); the engine hangs durable-version
	// accounting and the check oracle's commit hook off it.
	onCommit func(r *walRec)
	injector *inject.Injector
	tracer   *trace.Tracer

	stats core.JournalStats
}

func newWAL(eng *sim.Engine, dev *ssd.Device, halfBytes int64, aligned bool, header int64) *wal {
	return &wal{eng: eng, dev: dev, halfBytes: halfBytes, aligned: aligned, header: header}
}

// halfStart returns the absolute offset of WAL half h (0 or 1).
func (w *wal) halfStart(h int) int64 { return int64(h) * w.halfBytes }

// UsedFrac returns the active half's fill fraction including buffered
// records.
func (w *wal) UsedFrac() float64 {
	return float64(w.head+w.pendBytes) / float64(w.halfBytes)
}

func (w *wal) recStored(payload int) int64 {
	if w.aligned {
		return roundUp(int64(payload), sector)
	}
	return w.header + int64(payload)
}

// WouldOverflow reports whether logging a payload of the given size risks
// exceeding the active half.
func (w *wal) WouldOverflow(payload int) bool {
	need := roundUp(w.recStored(payload), sector) + sector
	return w.head+w.pendBytes+need > w.halfBytes
}

// Append buffers a WAL record and returns it plus a future completing when
// its group commit is durable.
func (w *wal) Append(key, version int64, payload int) (*walRec, *sim.Future) {
	w.seq++
	r := &walRec{seq: w.seq, key: key, version: version, payload: payload}
	w.pending = append(w.pending, r)
	w.pendBytes += roundUp(w.recStored(payload), sector)
	w.stats.Logs++
	w.stats.PayloadBytes += uint64(payload)
	if w.nextBatch == nil {
		w.nextBatch = sim.NewFuture(w.eng)
	}
	fut := w.nextBatch
	if !w.commitInFlight && !w.sealing {
		w.startCommit()
	}
	return r, fut
}

// startCommit lays the buffered records out in the active half, writes them
// with one device write, and flushes — group commit, chained exactly like
// the journal engine's.
func (w *wal) startCommit() {
	if len(w.pending) == 0 || w.commitInFlight {
		return
	}
	batch := w.pending
	fut := w.nextBatch
	w.pending, w.pendBytes = nil, 0
	w.nextBatch = nil

	base := w.halfStart(w.active) + w.head
	w.head += w.commitBatch(batch, fut, base)
	if w.head > w.halfBytes {
		panic(fmt.Sprintf("lsm: wal half overflow (%d > %d); soft trigger misconfigured",
			w.head, w.halfBytes))
	}
}

// commitBatch lays batch out at the absolute offset base, issues the device
// write + flush, and returns the laid-out length.
func (w *wal) commitBatch(batch []*walRec, fut *sim.Future, base int64) int64 {
	w.commitInFlight = true
	w.inFlightDone = fut

	var off int64
	for _, r := range batch {
		if w.aligned {
			stored := roundUp(int64(r.payload), sector)
			if stored == 0 {
				stored = sector
			}
			r.off = base + off
			r.stored = int(stored)
			w.stats.PadWaste += uint64(stored - int64(r.payload))
			w.stats.FullLogs++
			off += stored
		} else {
			r.off = base + off + w.header // payload begins after the header
			r.stored = int(w.header) + r.payload
			w.stats.FullLogs++
			off += int64(r.stored)
		}
	}
	length := off
	w.stats.Commits++
	w.stats.StoredBytes += uint64(length)

	w.dev.Write(base, length, ssd.AreaJournal)
	ff := w.dev.Flush(ssd.AreaJournal)
	ff.OnComplete(func() {
		w.tracer.Emit(w.eng.Now(), trace.KindJournalCommit, length, "")
		for _, r := range batch {
			r.committed = true
			if w.onCommit != nil {
				w.onCommit(r)
			}
		}
		w.injector.Hit(inject.SiteWALCommit)
		w.commitInFlight = false
		w.inFlightDone = nil
		fut.Complete()
		if !w.sealing && len(w.pending) > 0 {
			w.startCommit()
		}
	})
	return length
}

// Seal atomically rotates logging onto the alternate half — new appends
// immediately target the fresh half — then drains the sealed half: the
// in-flight batch plus any records still buffered. When Seal returns, every
// record at or below the returned seq is durable on the sealed half, which
// is what lets the flush write only committed entries into the sorted run.
func (w *wal) Seal(p *sim.Proc) (half int, used int64, maxSeq int64) {
	w.sealing = true
	oldHalf, oldHead := w.active, w.head
	oldPending, oldFut := w.pending, w.nextBatch
	maxSeq = w.seq

	w.active ^= 1
	w.head = 0
	w.pending, w.pendBytes = nil, 0
	w.nextBatch = nil

	for w.commitInFlight {
		p.Wait(w.inFlightDone)
	}
	if len(oldPending) > 0 {
		base := w.halfStart(oldHalf) + oldHead
		oldHead += w.commitBatch(oldPending, oldFut, base)
		if oldHead > w.halfBytes {
			panic("lsm: wal half overflow during seal")
		}
		for w.commitInFlight {
			p.Wait(w.inFlightDone)
		}
	}
	w.sealing = false
	w.stats.HalfSwitches++
	w.tracer.Emit(w.eng.Now(), trace.KindJournalSwitch, int64(oldHalf), "")
	if len(w.pending) > 0 {
		w.startCommit()
	}
	return oldHalf, oldHead, maxSeq
}

// Stats returns a snapshot of WAL counters in the journaling-stats shape
// shared with the journal engine.
func (w *wal) Stats() core.JournalStats { return w.stats }
