package core

import "slices"

// LogType classifies a journal log's stored format (Algorithm 2).
type LogType uint8

// Log format types.
const (
	// LogFull occupies whole mapping units and can be checkpointed by a
	// pure remap.
	LogFull LogType = iota
	// LogPartial is smaller than a mapping unit after size-class padding;
	// it is packed with other partial logs into a shared unit.
	LogPartial
	// LogMerged is a partial log that has been packed into a shared unit.
	LogMerged
)

// String names the log type.
func (t LogType) String() string {
	switch t {
	case LogFull:
		return "FULL"
	case LogPartial:
		return "PARTIAL"
	case LogMerged:
		return "MERGED"
	default:
		return "?"
	}
}

// jmtEntry is one record of the journal mapping table: the mapping between
// a target (data-area) location and the journal location of its newest
// uncheckpointed version. Entries are append-only (write-ahead-log method);
// a newer update for the same key flips the previous entry's Old flag
// rather than modifying it (Figure 2(b), Algorithm 1's NEW/OLD flags).
type jmtEntry struct {
	key     int64
	version int64

	// journal placement, assigned when the log is laid out at commit
	off     int64 // absolute journal offset of the stored payload
	stored  int   // bytes occupied in the journal (after padding/merging)
	payload int   // raw value bytes
	typ     LogType

	// target placement in the data area
	targetOff int64
	targetLen int

	old       bool // superseded by a newer entry for the same key
	committed bool // the log has been durably written
}

// Commit marks the log durable (its group commit completed).
func (e *jmtEntry) Commit() (key, version int64) {
	e.committed = true
	return e.key, e.version
}

// JMT is the journal mapping table for one journal half: an append-only
// entry log plus a latest-version index. Keys are record numbers, dense in
// [0, Keys), so the index is a key-indexed slice of log positions: Latest,
// on every query, is two bounds-checked loads, and the index holds no
// pointers for the garbage collector to scan.
type JMT struct {
	entries []*jmtEntry
	latest  []int32 // key → log position+1 of its newest entry, 0 = none
	live    int     // entries with old == false
}

// NewJMT returns an empty table whose index grows to the largest key added.
func NewJMT() *JMT { return &JMT{} }

// newJMT returns an empty table indexing keys [0, keys) without growth.
func newJMT(keys int64) *JMT {
	return &JMT{latest: make([]int32, keys)}
}

// Add appends a new entry, marking any previous entry for the same key OLD.
func (t *JMT) Add(e *jmtEntry) {
	if e.key >= int64(len(t.latest)) {
		t.latest = append(t.latest, make([]int32, e.key+1-int64(len(t.latest)))...)
	}
	if p := t.latest[e.key]; p != 0 {
		t.entries[p-1].old = true
		t.live--
	}
	t.entries = append(t.entries, e)
	t.latest[e.key] = int32(len(t.entries))
	t.live++
}

// newEntry returns a zeroed entry for the next Add: the object a reset left
// at the log's next position when there is one, else a fresh one. A table
// reused across checkpoint cuts thus appends without allocating once it has
// held as many entries before.
func (t *JMT) newEntry() *jmtEntry {
	if n := len(t.entries); n < cap(t.entries) {
		if e := t.entries[:n+1][n]; e != nil {
			*e = jmtEntry{}
			return e
		}
	}
	return new(jmtEntry)
}

// reset empties the table in O(entries) for reuse by a later cut. The
// entry objects stay behind the log's length for newEntry to hand out
// again, so nothing may still reference them: the table's checkpoint has
// finished and every commit of its half has completed.
func (t *JMT) reset() {
	for _, e := range t.entries {
		t.latest[e.key] = 0
	}
	t.entries = t.entries[:0]
	t.live = 0
}

// clone returns a deep copy of the table, including the entry objects a
// reset left past the log's length, so the copy's appends reuse them as
// t's would (see newEntry). The index holds log positions, not entry
// pointers, so it copies as is and keeps naming the copies.
func (t *JMT) clone() *JMT {
	all := t.entries[:cap(t.entries)]
	n := 0 // entry objects: a prefix of all
	for n < len(all) && all[n] != nil {
		n++
	}
	out := &JMT{
		entries: make([]*jmtEntry, len(t.entries), cap(t.entries)),
		latest:  slices.Clone(t.latest),
		live:    t.live,
	}
	copies := make([]jmtEntry, n)
	reuse := out.entries[:n]
	for i, e := range all[:n] {
		copies[i] = *e
		reuse[i] = &copies[i]
	}
	return out
}

// Latest returns the newest entry for key, or nil.
func (t *JMT) Latest(key int64) *jmtEntry {
	if key < 0 || key >= int64(len(t.latest)) {
		return nil
	}
	if p := t.latest[key]; p != 0 {
		return t.entries[p-1]
	}
	return nil
}

// Entries returns the full append log (including OLD entries).
func (t *JMT) Entries() []*jmtEntry { return t.entries }

// Len returns the total number of entries (including OLD).
func (t *JMT) Len() int { return len(t.entries) }

// Live returns the number of latest-version entries.
func (t *JMT) Live() int { return t.live }
