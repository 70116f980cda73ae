// Package lsm implements an LSM-tree host engine over the simulated
// Check-In SSD: a write-ahead log with group commit, an in-memory memtable,
// sorted runs flushed to flash, and a Director/Executor compaction layer
// with leveled and tiered policies. It is the second implementation of the
// core.Host contract — the journal+JMT engine (internal/core) being the
// first, and core.Base the part both share — and exists so in-storage
// checkpointing can be evaluated against the flash-friendly sequential
// writes of compaction.
//
// The facade follows the kevo engine design (storage, transaction and
// compaction concerns behind one coordinating type); the compaction split
// follows the amethystdb Director (policy: pick what to merge) / Executor
// (mechanism: k-way merge, install, delete inputs) separation.
//
// Check-In's five checkpoint strategies apply to the memtable flush — the
// LSM's checkpoint analogue. The flushed run's layout is identical across
// strategies; only the transfer differs:
//
//   - Baseline writes the run from host memory with large sequential writes
//     (the memtable already holds the values);
//   - ISC-A / ISC-B copy each record device-side from its WAL location with
//     CoW / multi-CoW commands;
//   - ISC-C / Check-In remap the WAL records onto the run's slots with
//     checkpoint-request commands — no second flash program at all. Whether
//     a record remaps cleanly or degrades to a read-merge-write depends on
//     the WAL record format (sector-aligned under Check-In, dense
//     conventional otherwise), exactly as in the journal engine.
//
// Compaction, by contrast, is always host-side sequential I/O: runs are
// streamed to the host, merged, and written back — the traffic shape the
// compaction experiment compares the strategies under.
//
// Durability truth: a version is durable iff its WAL group commit completed
// (tracked per record), and recovery folds the last durably-published
// manifest's runs with the committed WAL records above the manifest floor.
// The crash sites (wal-append, wal-commit, mem-flush, compact-install,
// manifest-publish) pin each transition.
package lsm

import (
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
)

// Policy names a compaction policy.
const (
	PolicyLeveled = "leveled"
	PolicyTiered  = "tiered"
)

// maxLevels bounds the level/tier hierarchy; the bottom level holds the
// load-phase base run and major-compaction outputs.
const maxLevels = 8

// baseLevel is the bottom of the hierarchy.
const baseLevel = maxLevels - 1

// Config parameterizes the LSM engine. The embedded host settings carry the
// same meaning as for the journal engine; JournalHalfBytes sizes each WAL
// half, and a memtable flush seals the active half at the latest when it
// passes JournalSoftFrac.
type Config struct {
	core.HostConfig

	// MemtableEntries triggers a flush when the memtable holds this many
	// distinct keys.
	MemtableEntries int

	// Policy selects the compaction policy: "leveled" or "tiered".
	Policy string
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if err := c.HostConfig.Validate(); err != nil {
		return err
	}
	if c.MemtableEntries < 1 {
		return fmt.Errorf("lsm: MemtableEntries %d must be >= 1", c.MemtableEntries)
	}
	if c.JournalHalfBytes%sector != 0 {
		return fmt.Errorf("lsm: JournalHalfBytes %d must be a sector multiple", c.JournalHalfBytes)
	}
	switch c.Policy {
	case PolicyLeveled, PolicyTiered:
	default:
		return fmt.Errorf("lsm: unknown compaction policy %q (want leveled or tiered)", c.Policy)
	}
	return nil
}

// Stats accumulates LSM-specific counters.
type Stats struct {
	Flushes          uint64
	FlushedEntries   uint64
	FlushedBytes     uint64 // payload bytes installed by flushes
	Compactions      uint64
	MajorCompactions uint64
	CompactionRead   uint64 // host-link bytes compaction read
	CompactionWrite  uint64 // host-link bytes compaction wrote
	RunsCreated      uint64
	RunsDeleted      uint64
	ManifestWrites   uint64
}

// Engine is the LSM host engine bound to one simulated device.
type Engine struct {
	core.Base
	cfg Config

	unit          int64 // FTL mapping unit
	manifestStart int64
	manifestSlot  int64
	runArea       extent
	alloc         *allocator

	// w is the write-ahead log; walLogs[h] holds the records logged to WAL
	// half h since it last became active, and walSeq numbers them. New
	// records reuse the ones past a log's length, or are cut from recSlab
	// (see newRec).
	w       *core.GroupCommit[*walRec]
	walLogs [2][]*walRec
	walSeq  int64
	recSlab []walRec

	// mem is the active memtable. imm is the sealed one while its flush
	// runs; between flushes it is empty, the spare the next seal swaps in.
	mem, imm memtable
	memLimit int

	levels    [maxLevels][]*run
	nextRunID uint64
	// newest locates every key's newest on-flash version: the run a
	// newest-first search of levels would find, kept current by each
	// install so a read needs no search.
	newest []loc

	// recSize is every key's record size: a write logs at most that many
	// bytes, as the journal engine's slot bounds it.
	recSize []int32

	// durable manifest: the run set and WAL floor recovery starts from.
	durableRuns  []*run
	durableFloor int64
	manifestSeq  uint64

	compacting  bool
	compactDone *sim.Future
	director    *director
	// merged is the merge output of the running compaction, reused by the
	// next (one compaction runs at a time).
	merged []runEntry
	// spare holds deleted runs whose metadata a new run refills (see
	// recycle and takeRun), in the order they were deleted.
	spare []*run

	st Stats
}

// New builds an LSM engine over dev. The device's FTL mapping unit must
// already reflect the strategy (see core.Strategy.DefaultMappingUnit).
func New(eng *sim.Engine, dev *ssd.Device, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	en := &Engine{
		cfg:      cfg,
		unit:     int64(dev.FTL().UnitSize()),
		memLimit: cfg.MemtableEntries,
	}
	// Space layout: two WAL halves, two manifest slots, then the run area.
	en.manifestStart = 2 * cfg.JournalHalfBytes
	en.manifestSlot = 256 << 10
	runStart := en.manifestStart + 2*en.manifestSlot
	runEnd := dev.LogicalBytes()
	if runEnd <= runStart {
		return nil, fmt.Errorf("lsm: device exports %d bytes, smaller than WAL+manifest (%d)", runEnd, runStart)
	}
	en.runArea = extent{off: runStart, len: runEnd - runStart}
	en.alloc = newAllocator(en.runArea)

	// The base run (every key at version 1) must fit with room for flush
	// runs and a compaction's transient output.
	var basePayload int64
	en.recSize = make([]int32, cfg.Keys)
	for k := range cfg.Keys {
		size := cfg.Sizer.SizeOf(k)
		en.recSize[k] = int32(size)
		basePayload += roundUp(int64(size), sector)
	}
	if 3*basePayload > en.runArea.len {
		return nil, fmt.Errorf("lsm: run area %d too small for %d key bytes (need 3x headroom)", en.runArea.len, basePayload)
	}
	en.mem, en.imm = newMemtable(cfg.Keys), newMemtable(cfg.Keys)
	en.newest = make([]loc, cfg.Keys)

	en.w = core.NewGroupCommit(eng, dev, walFormat{aligned: cfg.Strategy.SectorAligned(), header: cfg.Strategy.LogHeader()},
		&en.walLogs[0], core.LogConfig{
			Keys:       cfg.Keys,
			HalfBytes:  cfg.JournalHalfBytes,
			Slack:      sector,
			CommitSite: inject.SiteWALCommit,
			CutSite:    inject.NoSite,
			Tracer:     cfg.Tracer,
			Injector:   cfg.Injector,
		})
	en.director = newDirector(cfg.Policy, cfg.JournalHalfBytes)
	en.Base = core.NewBase(eng, dev, cfg.HostConfig, en, en.w, "flush", en.flush, en.maybeCompact)
	return en, nil
}

// extAlign returns the run-extent alignment: whole mapping units so
// deallocating a run trims cleanly.
func (en *Engine) extAlign() int64 {
	if en.unit > sector {
		return en.unit
	}
	return sector
}

// Stats returns LSM-specific counters.
func (en *Engine) Stats() Stats { return en.st }

// Levels reports the current run count per level (tests, reporting).
func (en *Engine) Levels() []int {
	out := make([]int, maxLevels)
	for i, l := range en.levels {
		out[i] = len(l)
	}
	return out
}

// ---------------------------------------------------------------------------
// load phase

// Load bulk-populates the store: every key at version 1, written as one
// sorted base run with large sequential writes, then a manifest publish.
// Mirrors the journal engine's load discipline (back-pressure via periodic
// flushes; excluded from metrics).
func (en *Engine) Load() error {
	return en.RunLoad(func(p *sim.Proc) {
		var need int64
		for _, size := range en.recSize {
			need += roundUp(int64(size), sector)
		}
		r, ok := en.takeRun(baseLevel, len(en.recSize), need)
		if !ok {
			panic("lsm: base run does not fit the empty run area") // New checks 3x headroom
		}
		off := r.ext.off
		for k, size := range en.recSize {
			off = r.add(int64(k), 1, int(size), off)
		}
		en.writeRunSequential(p, r, ssd.AreaData)
		en.levels[baseLevel] = append(en.levels[baseLevel], r)
		en.index(r)
		en.installed()
		en.st.RunsCreated++
		en.publishManifest(p, 0)
	})
}

// newRun allocates one extent for entries and plans the run's layout; ok
// is false when no free extent holds it.
func (en *Engine) newRun(level int, entries []runEntry) (*run, bool) {
	r, ok := en.takeRun(level, len(entries), entriesBytes(entries))
	if ok {
		off := r.ext.off
		for _, e := range entries {
			off = r.add(e.key, e.version, e.size, off)
		}
	}
	return r, ok
}

// takeRun allocates one extent for a run of n entries taking need
// laid-out bytes, and returns the run without its entries, which the
// caller adds from the extent's start; ok is false when no free extent
// holds it. The run's metadata comes from refill.
func (en *Engine) takeRun(level, n int, need int64) (*run, bool) {
	need = roundUp(need, en.extAlign())
	off, ok := en.alloc.take(need)
	if !ok {
		return nil, false
	}
	en.nextRunID++
	r := en.refill(n)
	r.id, r.level, r.ext = en.nextRunID, level, extent{off: off, len: need}
	return r, true
}

// refill returns an empty run with room for n entries: the smallest spare
// that has it, the earliest deleted on a tie. When no spare has, the runs
// have outgrown the spares (a level's run grows a little with each
// compaction into it): the largest spare goes to the garbage collector,
// so outgrown spares do not pile up, and the new run gets room for a
// quarter more entries, at most Keys, which the next few outputs of the
// same size class then refill.
func (en *Engine) refill(n int) *run {
	best, largest := -1, -1
	for i, r := range en.spare {
		c := cap(r.keys)
		if c >= n && (best < 0 || c < cap(en.spare[best].keys)) {
			best = i
		}
		if largest < 0 || c > cap(en.spare[largest].keys) {
			largest = i
		}
	}
	if best >= 0 {
		r := en.spare[best]
		en.spare = slices.Delete(en.spare, best, best+1)
		return r
	}
	if largest >= 0 {
		en.spare = slices.Delete(en.spare, largest, largest+1)
	}
	return makeRun(max(n, min(n+n/4, int(en.cfg.Keys))))
}

// recycle hands a deleted run's metadata to the spares for takeRun to
// refill, unless a fork shares the run. The caller has dropped r from
// every level and a later manifest publish from the durable set, so
// nothing reads it any more.
func (en *Engine) recycle(r *run) {
	if r.shared {
		return
	}
	*r = run{keys: r.keys[:0], vers: r.vers[:0], sizes: r.sizes[:0], offs: r.offs[:0]}
	en.spare = append(en.spare, r)
}

// newRuns is newRun for a compaction's output, which may not fit one
// extent once flush and compaction runs have fragmented the run area. It
// then splits the entries, in key order, into runs that fill the largest
// free extent first; the runs cover disjoint key ranges, so a level holds
// them side by side. ok is false, with nothing allocated, when the free
// extents cannot hold every entry.
func (en *Engine) newRuns(level int, entries []runEntry) ([]*run, bool) {
	if r, ok := en.newRun(level, entries); ok {
		return []*run{r}, true
	}
	var rs []*run
	for len(entries) > 0 {
		room := en.alloc.largest()
		n, need := 0, int64(0)
		for ; n < len(entries); n++ {
			next := need + roundUp(int64(entries[n].size), sector)
			if roundUp(next, en.extAlign()) > room {
				break
			}
			need = next
		}
		if n == 0 {
			for _, r := range rs {
				en.alloc.release(r.ext)
			}
			return nil, false
		}
		r, _ := en.newRun(level, entries[:n])
		rs = append(rs, r)
		entries = entries[n:]
	}
	return rs, true
}

// entriesBytes is the laid-out size of entries: one sector-padded slot
// each.
func entriesBytes(entries []runEntry) int64 {
	var n int64
	for _, e := range entries {
		n += roundUp(int64(e.size), sector)
	}
	return n
}

// exhausted ends the run with an error from Run: the run area cannot take
// need more bytes for what. p, the flush or compaction that needed them,
// parks for good.
func (en *Engine) exhausted(p *sim.Proc, what string, need int64) {
	en.Fail(fmt.Errorf("lsm: run area exhausted %s (%s, need %d)", what, en.alloc, need))
	p.Wait(sim.NewFuture(en.Sim()))
}

// allocatable reports whether an extent of n laid-out bytes could be taken.
func (en *Engine) allocatable(n int64) bool {
	return en.alloc.fits(roundUp(n, en.extAlign()))
}

// writeRunSequential streams a run's extent to the device in large
// sequential chunks from host memory — the flash-friendly write shape LSM
// engines are built around.
func (en *Engine) writeRunSequential(p *sim.Proc, r *run, area ssd.Area) {
	const chunk = 256 << 10
	dev := en.Device()
	total := r.ext.len
	issued := 0
	for off := int64(0); off < total; off += chunk {
		n := int64(chunk)
		if off+n > total {
			n = total - off
		}
		p.Sleep(core.HostIOOverhead)
		dev.Release(dev.Write(r.ext.off+off, n, area))
		if issued++; issued%16 == 0 {
			core.WaitDevice(p, dev, dev.Flush(area))
		}
	}
	core.WaitDevice(p, dev, dev.Flush(area))
}

// ---------------------------------------------------------------------------
// query paths (the op machine; see core.Ops)

// Get executes a read: active memtable, then the sealed (flushing)
// memtable — both host memory — then flash. The newest-version index
// (newest) holds the location of the key's newest on-flash version, so an
// on-flash hit costs one load and exactly one device read.
func (en *Engine) Get(q *core.Query) bool {
	if q.Stage == 0 {
		if en.Gate(q) {
			return false
		}
		key := q.Op.Key
		if en.inMemory(key) {
			return true
		}
		l := en.newest[key]
		if l.off == 0 {
			return true
		}
		// A run's offsets are fixed when it is planned, so reading them
		// before the host overhead elapses reads what after would.
		q.Await(en.Device().ReadAfter(core.HostIOOverhead, l.off, int64(l.size)))
		q.Stage = 1
	}
	return !en.WaitRelease(q)
}

// inMemory reports whether key's newest version is in the active or the
// sealed memtable.
func (en *Engine) inMemory(key int64) bool {
	return en.mem.cells[key] != nil || en.imm.cells[key] != nil
}

// Update executes a write: log to the WAL (write-ahead), install in the
// memtable, and wait for the group commit. Like the journal engine, it logs
// at most the key's record size.
func (en *Engine) Update(q *core.Query) bool {
	if q.Stage != 0 {
		return true // woken by the commit
	}
	v, ok, parked := en.AdmitWrite(q)
	if parked || !ok {
		return !parked
	}
	key := q.Op.Key
	size := min(q.Size(), int(en.recSize[key]))
	en.walSeq++
	rec := en.newRec()
	*rec = walRec{seq: en.walSeq, key: key, version: v, payload: size}
	log := &en.walLogs[en.w.Active()]
	*log = append(*log, rec)
	commit := en.w.Queue(size)
	en.w.StartCommit()
	en.mem.put(rec)
	en.cfg.Injector.Hit(inject.SiteWALAppend)
	if !en.CheckpointRunning() &&
		(en.mem.len() >= en.memLimit || en.w.UsedFrac() > en.cfg.JournalSoftFrac) {
		en.TriggerCheckpoint()
	}
	q.Stage = 1
	return !q.Wait(commit)
}

// recSlabLen is how many WAL records one slab allocation holds.
const recSlabLen = 256

// newRec returns a record for the next entry of the active half's log:
// the one a flush left at that position when there is one (see flush),
// else the next one cut from the slab, allocating a fresh slab when the
// current one is used up. A log that has held as many records before thus
// appends without allocating. The caller overwrites the whole record.
func (en *Engine) newRec() *walRec {
	log := en.walLogs[en.w.Active()]
	if n := len(log); n < cap(log) {
		if rec := log[:n+1][n]; rec != nil {
			return rec
		}
	}
	if len(en.recSlab) == 0 {
		en.recSlab = make([]walRec, recSlabLen)
	}
	rec := &en.recSlab[0]
	en.recSlab = en.recSlab[1:]
	return rec
}

// Scan executes a range read of q.Op.ScanLen consecutive records starting
// at q.Op.Key: one sequential read over the range in each bottom run (one,
// unless a compaction had to split its output), plus individual reads for
// keys whose newest version lives in an upper run (memtable hits are host
// memory).
func (en *Engine) Scan(q *core.Query) bool {
	switch q.Stage {
	case 0:
		if en.AdmitScan(q) {
			return false
		}
		q.Stage = 1
		return !q.Sleep(core.HostIOOverhead)
	case 1:
		key, n := q.Op.Key, int64(q.Op.ScanLen)
		for _, base := range en.levels[baseLevel] {
			// [i, j]: the run's keys inside [key, key+n)
			i, _ := base.find(key)
			j, ok := base.find(key + n - 1)
			if !ok {
				j--
			}
			if i <= j {
				q.Await(en.Device().Read(base.offs[i],
					base.offs[j]+int64(base.sizes[j])-base.offs[i]))
			}
		}
		for k := key; k < key+n; k++ {
			if en.inMemory(k) {
				continue
			}
			if l := en.newest[k]; l.off != 0 && l.level < baseLevel {
				q.Await(en.Device().Read(l.off, int64(l.size)))
			}
		}
		q.Stage = 2
	}
	return !en.WaitRelease(q)
}

// ---------------------------------------------------------------------------
// flush epochs (the LSM's checkpoint)

// flush is one flush epoch: seal the memtable, drain the sealed WAL half,
// install the sorted run via the configured strategy, publish the
// manifest, and deallocate the half. A compaction check follows each
// epoch.
func (en *Engine) flush(p *sim.Proc, start sim.VTime) {
	// Seal: the active memtable becomes immutable (still readable), new
	// writes go to the spare, which the previous epoch emptied, and the
	// rotated WAL half, whose record log it emptied too. When the cut
	// returns every sealed record is durable, so the flushed run holds
	// only committed versions — recovery equivalence depends on this.
	en.mem, en.imm = en.imm, en.mem
	maxSeq := en.walSeq
	half, used := en.w.Cut(p, &en.walLogs[en.w.Active()^1])

	sealedLogs := len(en.walLogs[half])
	en.cfg.Tracer.Emit(start, trace.KindCheckpointBegin, int64(en.imm.len()),
		fmt.Sprintf("entries=%d used=%dKB", sealedLogs, used>>10))

	if en.imm.len() > 0 {
		r := en.flushRun(p)
		en.levels[0] = append(en.levels[0], r)
		en.index(r)
		en.installed()
		en.st.Flushes++
		en.st.FlushedEntries += uint64(len(r.keys))
		en.st.FlushedBytes += uint64(r.payload)
		en.st.RunsCreated++
		en.publishManifest(p, maxSeq)
		// the sealed WAL half is fully superseded: deallocate it
		if used > 0 {
			core.WaitDevice(p, en.Device(), en.Device().Deallocate(en.w.HalfStart(half), roundUp(used, en.unit)))
		}
	}
	en.imm.clear()
	// The manifest floor now covers every sealed record (none were logged
	// if nothing was flushed): empty the half's log for its next turn.
	// Nothing references its records any more, so they stay past the
	// log's length for newRec to hand out again.
	en.walLogs[half] = en.walLogs[half][:0]
}

// flushRun materializes the sealed memtable as a level-0 run using the
// configured checkpoint strategy for the data transfer.
func (en *Engine) flushRun(p *sim.Proc) *run {
	// Keys are distinct (one memtable cell each), so sorting them fixes
	// the run's layout.
	keys := en.imm.keys
	slices.Sort(keys)
	var need int64
	for _, k := range keys {
		need += roundUp(int64(en.imm.cells[k].payload), sector)
	}

	// Back-pressure: wait for a running compaction (or force one) when the
	// run area cannot take the new extent.
	for !en.allocatable(need) {
		if en.compacting {
			p.Wait(en.compactDone)
			continue
		}
		if !en.startCompaction(true) {
			break // nothing left to reclaim
		}
		p.Wait(en.compactDone)
	}
	r, ok := en.takeRun(0, len(keys), need)
	if !ok {
		en.exhausted(p, "during a flush", need)
	}
	off := r.ext.off
	for _, k := range keys {
		rec := en.imm.cells[k]
		off = r.add(k, rec.version, rec.payload, off)
	}

	switch s := en.cfg.Strategy; {
	case s == core.StrategyBaseline:
		// host-side flush: the values sit in the memtable, stream them out
		en.writeRunSequential(p, r, ssd.AreaCheckpoint)
	case s.UsesRemap():
		// Remap each record's WAL extent onto its run slot. Under the
		// sector-aligned WAL format the source extents remap cleanly; the
		// dense conventional format degrades to read-merge-writes in the
		// FTL, exactly the ISC-C/Check-In distinction of the journal engine.
		en.Remap(p, flushSource(r, en.imm.cells, func(rec *walRec, dst int64) ssd.RemapEntry {
			return ssd.RemapEntry{Src: rec.off, Dst: dst, Len: roundUp(int64(rec.payload), sector)}
		}))
	default:
		// ISC-A / ISC-B copy each record device-side from its WAL location
		en.CoW(p, flushSource(r, en.imm.cells, func(rec *walRec, dst int64) ssd.CoWPair {
			return ssd.CoWPair{Src: rec.off, Dst: dst, Len: int64(rec.payload)}
		}))
	}
	en.cfg.Injector.Hit(inject.SiteMemFlush)
	return r
}

// flushSource streams a flush's transfer requests (see core.Base.Remap) in
// the run's key order: req builds each from the key's sealed WAL record,
// cells[key], and its slot in r.
func flushSource[T any](r *run, cells []*walRec, req func(rec *walRec, dst int64) T) func([]T) int {
	j := 0
	return func(buf []T) int {
		n := min(len(buf), len(r.keys)-j)
		for i := range n {
			buf[i] = req(cells[r.keys[j+i]], r.offs[j+i])
		}
		j += n
		return n
	}
}

// publishManifest writes and flushes the alternate manifest slot, then
// atomically advances the durable run set and WAL floor. floor < 0 keeps
// the current floor (compaction publishes do not move it).
func (en *Engine) publishManifest(p *sim.Proc, floor int64) {
	en.manifestSeq++
	slot := int64(en.manifestSeq % 2)
	runs := 0
	for _, l := range en.levels {
		runs += len(l)
	}
	n := roundUp(64+32*int64(runs), sector)
	if n > en.manifestSlot {
		n = en.manifestSlot
	}
	p.Sleep(core.HostIOOverhead)
	dev := en.Device()
	dev.Release(dev.Write(en.manifestStart+slot*en.manifestSlot, n, ssd.AreaData))
	core.WaitDevice(p, dev, dev.Flush(ssd.AreaData))
	// Durable from this instant: snapshot the run set and advance the floor.
	dr := make([]*run, 0, runs)
	for _, l := range en.levels {
		dr = append(dr, l...)
	}
	en.durableRuns = dr
	if floor >= 0 && floor > en.durableFloor {
		en.durableFloor = floor
	}
	en.st.ManifestWrites++
	en.cfg.Injector.Hit(inject.SiteManifestPublish)
}

// ---------------------------------------------------------------------------
// crash recovery

// Recovery reports what a restarted instance recovers: the last
// durably-published manifest's runs, overlaid with committed WAL records
// above the manifest floor; the scan reads the manifest slot (runs open
// from their footers, metadata-only), then the WAL tail. Pure — safe to
// call from inside an engine event.
func (en *Engine) Recovery() *core.RecoveryReport {
	published := make([]int64, en.cfg.Keys)
	for _, r := range en.durableRuns {
		for i, k := range r.keys {
			if r.vers[i] > published[k] {
				published[k] = r.vers[i]
			}
		}
	}
	rep := en.NewRecoveryReport(published)
	for _, log := range en.walLogs {
		for _, rec := range log {
			if rec.committed && rec.seq > en.durableFloor {
				rep.Replay(rec.key, rec.version, rec.stored)
			}
		}
	}
	rep.Reads = append(rep.Reads, core.ScanRead{Off: en.manifestStart + int64(en.manifestSeq%2)*en.manifestSlot, Len: sector})
	rep.ScanLog(en.w.HalfStart(en.w.Active()), en.cfg.JournalHalfBytes)
	return rep
}
