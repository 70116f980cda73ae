package core

import (
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
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

// journal is the journaling layer: the JMT, the log formatter — either the
// conventional contiguous format (a small inline header per log) or
// Check-In's sector-aligned format (Algorithm 2) — over the group-commit
// log, whose pending batch is always the suffix of the active JMT's log.
type journal struct {
	*GroupCommit[*jmtEntry]

	layout *Layout

	aligned  bool
	unit     int64 // FTL mapping unit (Algorithm 2's MAPPING_SIZE)
	header   int64 // inline header bytes in conventional mode
	compress float64

	jmt *JMT
	// spare is the table a finished checkpoint retired, reset and waiting
	// to become the active table at the next cut (nil until one retires).
	spare *JMT
}

func newJournal(eng *sim.Engine, dev *ssd.Device, layout *Layout, aligned bool, header int64, compress float64) *journal {
	j := &journal{
		layout:   layout,
		aligned:  aligned,
		unit:     int64(dev.FTL().UnitSize()),
		header:   header,
		compress: compress,
		jmt:      newJMT(layout.Keys()),
	}
	j.GroupCommit = NewGroupCommit(eng, dev, j, &j.jmt.entries, LogConfig{
		Keys:       layout.Keys(),
		HalfBytes:  layout.JournalHalfBytes,
		CommitSite: inject.SiteJournalCommit,
		CutSite:    inject.SiteCheckpointCut,
	})
	return j
}

// Reserve upper-bounds the journal bytes one log of payload bytes needs
// once laid out.
func (j *journal) Reserve(payload int) int64 {
	return roundUp(int64(payload)+j.header, j.unit) + j.unit
}

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
	fut := j.Queue(payload)
	j.cfg.Injector.Hit(inject.SiteJournalAppend)
	j.StartCommit()
	return e, fut
}

// Layout lays batch out at base in the strategy's journal format.
func (j *journal) Layout(batch []*jmtEntry, base int64, st *JournalStats) int64 {
	if j.aligned {
		return j.layoutAligned(batch, base, st)
	}
	return j.layoutConventional(batch, base, st)
}

// layoutConventional assigns contiguous offsets: each log is an inline
// header followed by the raw payload. Nothing is aligned — the format the
// Baseline and ISC configurations journal with.
func (j *journal) layoutConventional(batch []*jmtEntry, base int64, st *JournalStats) int64 {
	var off int64
	for _, e := range batch {
		e.off = base + off + j.header // payload begins after the header
		e.stored = int(j.header) + e.payload
		e.typ = LogFull
		off += int64(e.stored)
		st.FullLogs++
	}
	return off
}

// layoutAligned implements Algorithm 2: payloads larger than the mapping
// unit are compressed and padded to unit multiples (FULL); smaller payloads
// are padded to quarter-unit size classes; sub-unit logs (PARTIAL) are
// packed together into shared units (MERGED).
func (j *journal) layoutAligned(batch []*jmtEntry, base int64, st *JournalStats) int64 {
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
		st.PadWaste += uint64(j.unit - sectorUsed)
		st.MergedUnits++
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
			st.FullLogs++
			st.Compressed++
			st.PadWaste += uint64(stored - comp)
			continue
		}
		// pad up to the next quarter-unit size class
		stored := roundUp(payload, classStep)
		if stored == 0 {
			stored = classStep
		}
		st.PadWaste += uint64(stored - payload)
		if stored == j.unit {
			e.stored = int(stored)
			e.typ = LogFull
			e.off = base + off
			off += stored
			st.FullLogs++
			continue
		}
		// PARTIAL: pack into the open shared unit
		e.typ = LogMerged
		e.stored = int(stored)
		st.PartialLogs++
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
// old half's tail, returning once the old half is fully durable. This is the
// paper's "new journal area and JMT are already built as an alternative, so
// journaling for other requests can be done without blocking".
func (j *journal) CutForCheckpoint(p *sim.Proc) ckptSnapshot {
	old := j.jmt
	if j.spare != nil {
		j.jmt, j.spare = j.spare, nil
	} else {
		j.jmt = newJMT(j.layout.Keys())
	}
	half, used := j.Cut(p, &j.jmt.entries)
	return ckptSnapshot{jmt: old, half: half, used: used}
}

// retire hands back a cut table whose checkpoint has finished: it is reset
// and becomes the active table at the next cut, entry objects included.
func (j *journal) retire(t *JMT) {
	t.reset()
	j.spare = t
}

// JMT exposes the active table (query read path, tests).
func (j *journal) JMT() *JMT { return j.jmt }
