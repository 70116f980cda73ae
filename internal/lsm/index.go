package lsm

// Keys are dense in [0, Keys), so the engine's host-memory lookups are
// key-indexed slices rather than maps or searches: the memtables, and the
// newest-version index that locates a key on flash in one load.

// loc locates a key's newest on-flash version: the device offset and
// payload size of its slot, and the level of the run holding it. It holds
// no pointer, so the key-indexed table of them costs the garbage collector
// nothing to scan. A zero off marks a key no run holds: offset 0 lies in
// the first WAL half, never in the run area.
type loc struct {
	off   int64
	size  int32
	level int32
}

// index points the newest-version entry of every key r holds at r. A
// flush run and the load's base run shadow every run older than them, so
// their install overwrites the entries outright.
func (en *Engine) index(r *run) {
	for i, k := range r.keys {
		en.newest[k] = loc{off: r.offs[i], size: r.sizes[i], level: int32(r.level)}
	}
}

// repoint moves to out the entries of out's keys that a compaction's
// inputs held: an entry pointing inside an input's extent. Live runs'
// extents are disjoint, so the test is exact. Any other entry belongs to a
// run that shadows every input (flushed while the compaction ran) and
// stays.
func (en *Engine) repoint(out *run, inputs []*run) {
	for i, k := range out.keys {
		off := en.newest[k].off
		for _, in := range inputs {
			if off >= in.ext.off && off < in.ext.off+in.ext.len {
				en.newest[k] = loc{off: out.offs[i], size: out.sizes[i], level: int32(out.level)}
				break
			}
		}
	}
}

// afterInstall, when set, runs after every change to the run set: the
// load's base run, each flush install and each compaction install. Tests
// set it to check the newest-version index against a search of the runs.
var afterInstall func(*Engine)

// installed runs the afterInstall hook.
func (en *Engine) installed() {
	if afterInstall != nil {
		afterInstall(en)
	}
}

// memtable is a dense memtable: cells[k] is the WAL record of key k's
// newest in-memory version (nil when the memtable holds none) and keys
// lists the keys set, in the order they were first set. The record holds
// the version and payload size, and the flush strategies that copy or
// remap device-side need its WAL location.
type memtable struct {
	cells []*walRec
	keys  []int64
}

func newMemtable(keys int64) memtable {
	return memtable{cells: make([]*walRec, keys)}
}

// put installs rec as its key's newest in-memory version.
func (m *memtable) put(rec *walRec) {
	if m.cells[rec.key] == nil {
		m.keys = append(m.keys, rec.key)
	}
	m.cells[rec.key] = rec
}

// len returns the number of distinct keys set.
func (m *memtable) len() int { return len(m.keys) }

// fork returns a memtable with m's key list and no cells set, for a fork
// to relink to its own records. The key list keeps m's capacity.
func (m *memtable) fork() memtable {
	return memtable{cells: make([]*walRec, len(m.cells)), keys: append(make([]int64, 0, cap(m.keys)), m.keys...)}
}

// clear empties the memtable key by key, keeping its storage for reuse.
func (m *memtable) clear() {
	for _, k := range m.keys {
		m.cells[k] = nil
	}
	m.keys = m.keys[:0]
}
