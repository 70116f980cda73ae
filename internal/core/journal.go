package core

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
)

// JournalStats accumulates journaling-layer counters.
type JournalStats struct {
	PayloadBytes uint64 // raw value bytes the host asked to journal
	StoredBytes  uint64 // bytes actually occupied in the journal area
	Commits      uint64 // group commits (device write + flush pairs)
	Logs         uint64
	FullLogs     uint64
	PartialLogs  uint64 // partial logs packed into merged sectors
	Compressed   uint64 // logs larger than the mapping unit, compressed
	MergedUnits  uint64 // shared units produced by partial packing
	PadWaste     uint64 // bytes lost to size-class padding and sector tails
	HalfSwitches uint64
}

// SpaceOverhead returns stored/payload — the journal space-utilization
// metric behind Figure 13(b).
func (s JournalStats) SpaceOverhead() float64 {
	if s.PayloadBytes == 0 {
		return 1
	}
	return float64(s.StoredBytes) / float64(s.PayloadBytes)
}

// journal is the journaling layer: an in-memory log buffer with group
// commit, the JMT, a double-buffered on-device journal area, and the log
// formatter — either the conventional contiguous format (a small inline
// header per log) or Check-In's sector-aligned format (Algorithm 2).
type journal struct {
	eng    *sim.Engine
	dev    *ssd.Device
	layout *Layout

	aligned  bool
	unit     int64 // FTL mapping unit (Algorithm 2's MAPPING_SIZE)
	header   int64 // inline header bytes in conventional mode
	compress float64
	tracer   *trace.Tracer

	active int   // journal half in use
	head   int64 // bytes used in the active half

	jmt *JMT
	// spare is the table a finished checkpoint retired, reset and waiting
	// to become the active table at the next cut (nil until one retires).
	spare *JMT

	// The buffered logs — appended, not yet laid out — are always the
	// suffix jmt.entries[pendFrom:] of the active table's log. pendBytes
	// upper-bounds the journal bytes they will need once laid out.
	pendFrom       int
	pendBytes      int64
	nextBatch      *sim.Future
	commitInFlight bool
	inFlightDone   *sim.Future
	// cutting suspends commit auto-chaining while a checkpoint rotates
	// the halves, so the old half's final batch can be flushed without
	// new arrivals extending it forever.
	cutting bool

	// onCommit, when set, observes every log the moment its group commit
	// becomes durable (before client wakeup). The crash-consistency
	// harness's reference model hangs off this hook.
	onCommit func(key, version int64)
	injector *inject.Injector

	stats JournalStats
}

func newJournal(eng *sim.Engine, dev *ssd.Device, layout *Layout, aligned bool, header int64, compress float64) *journal {
	return &journal{
		eng:      eng,
		dev:      dev,
		layout:   layout,
		aligned:  aligned,
		unit:     int64(dev.FTL().UnitSize()),
		header:   header,
		compress: compress,
		jmt:      newJMT(layout.Keys()),
	}
}

// UsedBytes returns bytes consumed in the active half (committed plus
// pending estimate is tracked separately; head covers laid-out logs only).
func (j *journal) UsedBytes() int64 { return j.head }

// UsedFrac returns the active half's fill fraction.
func (j *journal) UsedFrac() float64 {
	return float64(j.head+j.pendBytes) / float64(j.layout.JournalHalfBytes)
}

// logEstimate upper-bounds the journal bytes one log of payload bytes needs
// once laid out.
func (j *journal) logEstimate(payload int) int64 {
	return roundUp(int64(payload)+j.header, j.unit) + j.unit
}

// WouldOverflow reports whether appending a log of payload bytes risks
// exceeding the active half.
func (j *journal) WouldOverflow(payload int) bool {
	return j.head+j.pendBytes+j.logEstimate(payload) > j.layout.JournalHalfBytes
}

// pending returns the buffered logs.
func (j *journal) pending() []*jmtEntry {
	return j.jmt.entries[j.pendFrom:len(j.jmt.entries):len(j.jmt.entries)]
}

// hasPending reports whether any log is buffered.
func (j *journal) hasPending() bool { return j.pendFrom < len(j.jmt.entries) }

// Append buffers a journal log for key at the given version and returns its
// JMT entry plus a future that completes when the log's group commit is
// durable.
func (j *journal) Append(key, version int64, payload int) (*jmtEntry, *sim.Future) {
	targetOff, targetLen := j.layout.Record(key)
	if payload > targetLen {
		payload = targetLen
	}
	e := j.jmt.newEntry()
	e.key = key
	e.version = version
	e.payload = payload
	e.targetOff = targetOff
	e.targetLen = targetLen
	j.jmt.Add(e)
	j.pendBytes += j.logEstimate(payload)
	j.stats.Logs++
	j.stats.PayloadBytes += uint64(payload)
	if j.nextBatch == nil {
		j.nextBatch = sim.NewFuture(j.eng)
	}
	fut := j.nextBatch
	j.injector.Hit(inject.SiteJournalAppend)
	if !j.commitInFlight && !j.cutting {
		j.startCommit()
	}
	return e, fut
}

// startCommit lays out the buffered logs in the active half, writes them
// with one device write, and flushes. Logs arriving during the in-flight
// commit form the next batch (group commit).
func (j *journal) startCommit() {
	if !j.hasPending() || j.commitInFlight {
		return
	}
	batch := j.pending()
	fut := j.nextBatch
	j.pendFrom, j.pendBytes = len(j.jmt.entries), 0
	j.nextBatch = nil

	base := j.layout.JournalStart(j.active) + j.head
	j.head += j.commitBatch(batch, fut, base)
	if j.head > j.layout.JournalHalfBytes {
		panic(fmt.Sprintf("core: journal half overflow (%d > %d); soft trigger misconfigured",
			j.head, j.layout.JournalHalfBytes))
	}
}

// commitBatch lays batch out at the absolute journal offset base, issues
// the device write + flush, and returns the laid-out length. On flush
// completion the batch's logs are durable and the next buffered batch is
// chained (unless a checkpoint cut is in progress).
func (j *journal) commitBatch(batch []*jmtEntry, fut *sim.Future, base int64) int64 {
	j.commitInFlight = true
	j.inFlightDone = fut

	var length int64
	if j.aligned {
		length = j.layoutAligned(batch, base)
	} else {
		length = j.layoutConventional(batch, base)
	}
	j.stats.Commits++
	j.stats.StoredBytes += uint64(length)

	// The flush's completion covers the write's durability: commands are
	// serviced FIFO on the link and the flush forces the written pages out.
	j.dev.Write(base, length, ssd.AreaJournal)
	ff := j.dev.Flush(ssd.AreaJournal)
	ff.OnComplete(func() {
		j.tracer.Emit(j.eng.Now(), trace.KindJournalCommit, length, "")
		for _, e := range batch {
			e.committed = true
			if j.onCommit != nil {
				j.onCommit(e.key, e.version)
			}
		}
		j.injector.Hit(inject.SiteJournalCommit)
		j.commitInFlight = false
		j.inFlightDone = nil
		fut.Complete()
		if !j.cutting && j.hasPending() {
			j.startCommit()
		}
	})
	return length
}

// layoutConventional assigns contiguous offsets: each log is an inline
// header followed by the raw payload. Nothing is aligned — the format the
// Baseline and ISC configurations journal with.
func (j *journal) layoutConventional(batch []*jmtEntry, base int64) int64 {
	var off int64
	for _, e := range batch {
		e.off = base + off + j.header // payload begins after the header
		e.stored = int(j.header) + e.payload
		e.typ = LogFull
		off += int64(e.stored)
		j.stats.FullLogs++
	}
	return off
}

// layoutAligned implements Algorithm 2: payloads larger than the mapping
// unit are compressed and padded to unit multiples (FULL); smaller payloads
// are padded to quarter-unit size classes; sub-unit logs (PARTIAL) are
// packed together into shared units (MERGED).
func (j *journal) layoutAligned(batch []*jmtEntry, base int64) int64 {
	// Size classes step by a quarter unit (Algorithm 2's MAPPING_SIZE/4),
	// but never coarser than the 128-byte minimum value granularity the
	// paper adopts from key-value SSDs — at a 4 KB unit, partial logs
	// still pack at 128-byte resolution inside shared units.
	classStep := j.unit / 4
	if classStep > 128 {
		classStep = 128
	}
	var off int64

	// open shared sector for partial logs, local to the batch
	sectorBase := int64(-1)
	var sectorUsed int64
	closeSector := func() {
		if sectorBase < 0 {
			return
		}
		j.stats.PadWaste += uint64(j.unit - sectorUsed)
		j.stats.MergedUnits++
		sectorBase = -1
		sectorUsed = 0
	}

	for _, e := range batch {
		payload := int64(e.payload)
		if payload > j.unit {
			// Compress(request): size ← (size/MAPPING_SIZE + 1) × MAPPING_SIZE
			comp := int64(float64(payload)*j.compress) + 1
			if comp > payload {
				comp = payload
			}
			stored := roundUp(comp, j.unit)
			e.stored = int(stored)
			e.typ = LogFull
			e.off = base + off
			off += stored
			j.stats.FullLogs++
			j.stats.Compressed++
			j.stats.PadWaste += uint64(stored - comp)
			continue
		}
		// pad up to the next quarter-unit size class
		stored := roundUp(payload, classStep)
		if stored == 0 {
			stored = classStep
		}
		j.stats.PadWaste += uint64(stored - payload)
		if stored == j.unit {
			e.stored = int(stored)
			e.typ = LogFull
			e.off = base + off
			off += stored
			j.stats.FullLogs++
			continue
		}
		// PARTIAL: pack into the open shared unit
		e.typ = LogMerged
		e.stored = int(stored)
		j.stats.PartialLogs++
		if sectorBase < 0 || sectorUsed+stored > j.unit {
			closeSector()
			sectorBase = base + off
			off += j.unit
		}
		e.off = sectorBase + sectorUsed
		sectorUsed += stored
		if sectorUsed == j.unit {
			closeSector()
		}
	}
	closeSector()
	return off
}

// snapshot captures the state a checkpoint consumes.
type ckptSnapshot struct {
	jmt  *JMT
	half int
	used int64
}

// CutForCheckpoint atomically rotates journaling onto the alternate half —
// new appends immediately target the fresh JMT and half — then flushes the
// old half's tail: the in-flight batch plus any logs that were still
// buffered. It returns once the old half is fully durable. This is the
// paper's "new journal area and JMT are already built as an alternative, so
// journaling for other requests can be done without blocking".
func (j *journal) CutForCheckpoint(p *sim.Proc) ckptSnapshot {
	j.cutting = true
	oldJmt, oldHalf, oldHead := j.jmt, j.active, j.head
	oldPending, oldFut := j.pending(), j.nextBatch

	if j.spare != nil {
		j.jmt, j.spare = j.spare, nil
	} else {
		j.jmt = newJMT(j.layout.Keys())
	}
	j.active ^= 1
	j.head = 0
	j.pendFrom, j.pendBytes = 0, 0
	j.nextBatch = nil

	// wait for the batch already being written to the old half
	for j.commitInFlight {
		p.Wait(j.inFlightDone)
	}
	// flush the logs that were buffered but not yet laid out
	if len(oldPending) > 0 {
		base := j.layout.JournalStart(oldHalf) + oldHead
		oldHead += j.commitBatch(oldPending, oldFut, base)
		if oldHead > j.layout.JournalHalfBytes {
			panic("core: journal half overflow during checkpoint cut")
		}
		for j.commitInFlight {
			p.Wait(j.inFlightDone)
		}
	}
	j.cutting = false
	j.stats.HalfSwitches++
	j.tracer.Emit(j.eng.Now(), trace.KindJournalSwitch, int64(oldHalf), "")
	j.injector.Hit(inject.SiteCheckpointCut)
	// resume group commit on the new half
	if j.hasPending() {
		j.startCommit()
	}
	return ckptSnapshot{jmt: oldJmt, half: oldHalf, used: oldHead}
}

// retire hands back a cut table whose checkpoint has finished: it is reset
// and becomes the active table at the next cut, entry objects included.
func (j *journal) retire(t *JMT) {
	t.reset()
	j.spare = t
}

// Stats returns a snapshot of journaling counters.
func (j *journal) Stats() JournalStats { return j.stats }

// JMT exposes the active table (query read path, tests).
func (j *journal) JMT() *JMT { return j.jmt }
