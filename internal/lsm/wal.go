package lsm

import "github.com/checkin-kv/checkin/internal/core"

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

	committed bool
}

// Commit marks the record durable (its group commit completed).
func (r *walRec) Commit() (key, version int64) {
	r.committed = true
	return r.key, r.version
}

// walFormat lays WAL records out for the group-commit log
// (core.GroupCommit), whose halves rotate at memtable seal, so one flush
// epoch's records occupy one extent that deallocates wholesale once the
// manifest publishes the flushed run.
//
// The format follows the strategy the engine runs under: Check-In's
// sector-aligned format rounds every record up to host sectors (remappable
// in place); the conventional format packs an inline header plus the raw
// payload densely (remap degrades to read-merge-write, the ISC-C shape).
type walFormat struct {
	aligned bool
	header  int64
}

func (f walFormat) recStored(payload int) int64 {
	if f.aligned {
		return roundUp(int64(payload), sector)
	}
	return f.header + int64(payload)
}

// Reserve returns the sector-rounded bytes a record of payload bytes needs.
func (f walFormat) Reserve(payload int) int64 {
	return roundUp(f.recStored(payload), sector)
}

// Layout places batch contiguously from base.
func (f walFormat) Layout(batch []*walRec, base int64, st *core.JournalStats) int64 {
	var off int64
	for _, r := range batch {
		if f.aligned {
			stored := roundUp(int64(r.payload), sector)
			if stored == 0 {
				stored = sector
			}
			r.off = base + off
			r.stored = int(stored)
			st.PadWaste += uint64(stored - int64(r.payload))
			off += stored
		} else {
			r.off = base + off + f.header // payload begins after the header
			r.stored = int(f.header) + r.payload
			off += int64(r.stored)
		}
		st.FullLogs++
	}
	return off
}
