package core

import (
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
	"github.com/checkin-kv/checkin/internal/workload"
)

// InlineHeaderBytes is the per-log header of the conventional journal and
// WAL formats (the sector-aligned format keeps descriptors host-side).
const InlineHeaderBytes = 16

// HostIOOverhead is the host-side software cost of issuing one block I/O
// (syscall + block layer + driver). It is what makes per-log host round
// trips expensive and function offloading attractive (Fig. 4).
const HostIOOverhead = 10 * sim.Microsecond

// Checkpoint command shapes.
const (
	ckptReadWindow = 1024 // Baseline: in-flight reads and writes draining the journal
	ckptCoWWindow  = 128  // ISC-A: in-flight CoW commands
	multiCoWBatch  = 64   // ISC-B: pairs per multi-CoW command
	ckptCmdBatch   = 128  // ISC-C / Check-In: entries per checkpoint request
)

// HostConfig holds the settings every host engine reads: the record
// population, the write-ahead log's halves, the checkpoint cadence and the
// strategy. Config (journal engine) and lsm.Config embed it.
type HostConfig struct {
	Strategy Strategy

	// Keys and Sizer define the record population.
	Keys  int64
	Sizer workload.Sizer

	// JournalHalfBytes is the capacity of each half of the write-ahead log
	// (the paper's journal-file cap: a checkpoint or memtable flush rotates
	// to the alternate half before the active one fills).
	JournalHalfBytes int64

	// CheckpointInterval triggers periodic checkpoints (60 s in the
	// paper; experiments scale it to the simulated run length).
	CheckpointInterval sim.VTime

	// JournalSoftFrac triggers an early checkpoint when the active half
	// passes this fill fraction.
	JournalSoftFrac float64

	// LockDuringCheckpoint stalls query admission while a checkpoint
	// runs — the paper's method for measuring pure checkpointing time.
	LockDuringCheckpoint bool

	// Tracer, when non-nil, receives checkpoint and journal events.
	Tracer *trace.Tracer

	// Injector, when set, receives crash-injection hits at the engine-level
	// sites. Nil in production.
	Injector *inject.Injector

	// Seed derives the closed-loop clients' operation streams.
	Seed int64
}

// Validate reports a descriptive error for unusable shared settings.
func (c HostConfig) Validate() error {
	if c.Strategy >= numStrategies {
		return fmt.Errorf("core: unknown strategy %d", c.Strategy)
	}
	if c.Keys < 1 {
		return fmt.Errorf("core: Keys %d must be >= 1", c.Keys)
	}
	if c.Sizer == nil {
		return fmt.Errorf("core: Sizer is required")
	}
	if c.JournalHalfBytes < 1<<16 {
		return fmt.Errorf("core: JournalHalfBytes %d too small", c.JournalHalfBytes)
	}
	if c.JournalSoftFrac <= 0 || c.JournalSoftFrac >= 1 {
		return fmt.Errorf("core: JournalSoftFrac %v out of (0,1)", c.JournalSoftFrac)
	}
	if c.CheckpointInterval == 0 {
		return fmt.Errorf("core: CheckpointInterval must be positive")
	}
	return nil
}

// Config parameterizes the journal storage engine.
type Config struct {
	HostConfig

	// CompressRatio models Algorithm 2's compression of logs larger than
	// the mapping unit.
	CompressRatio float64
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if err := c.HostConfig.Validate(); err != nil {
		return err
	}
	if c.CompressRatio <= 0 || c.CompressRatio > 1 {
		return fmt.Errorf("core: CompressRatio %v out of (0,1]", c.CompressRatio)
	}
	return nil
}

// Engine is the Check-In storage engine bound to one simulated device.
type Engine struct {
	Base
	cfg Config

	layout *Layout
	jr     *journal

	// ckpted is the checkpointed (data-area) version of each key; the base
	// keeps the in-memory versions and the journal the durable
	// (journaled+committed) ones — the recovery model.
	ckpted []int64

	ckptSnapshot *JMT // old-half JMT readable while its checkpoint runs
}

// NewEngine builds an engine over dev. The device's FTL mapping unit must
// already reflect the strategy (see Strategy.DefaultMappingUnit).
func NewEngine(eng *sim.Engine, dev *ssd.Device, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	unit := int64(dev.FTL().UnitSize())
	slotAlign := int64(hostSector)
	if cfg.Strategy.UsesRemap() && unit > slotAlign {
		// remapping requires unit-aligned record slots
		slotAlign = unit
	}
	layout, err := NewLayout(dev.LogicalBytes(), cfg.Keys, cfg.Sizer, cfg.JournalHalfBytes, slotAlign)
	if err != nil {
		return nil, err
	}
	en := &Engine{
		cfg:    cfg,
		layout: layout,
		ckpted: make([]int64, cfg.Keys),
	}
	en.jr = newJournal(eng, dev, layout, cfg.Strategy.SectorAligned(), cfg.Strategy.LogHeader(), cfg.CompressRatio)
	en.jr.cfg.Tracer = cfg.Tracer
	en.jr.cfg.Injector = cfg.Injector
	en.Base = NewBase(eng, dev, cfg.HostConfig, en, en.jr, "checkpoint", en.checkpoint, nil)
	return en, nil
}

// ---------------------------------------------------------------------------
// load phase

// Load bulk-populates the data area with every record at version 1 using
// large sequential writes, the standard YCSB load phase. It must run before
// queries.
func (en *Engine) Load() error {
	const chunk = 1 << 20
	return en.RunLoad(func(p *sim.Proc) {
		// Back-pressure via periodic flushes: a write's future only
		// completes once its page programs, which for sub-page mapping
		// units may require the flush that closes the partial tail page.
		issued := 0
		for off := en.layout.DataStart; off < en.layout.DataEnd; off += chunk {
			n := int64(chunk)
			if off+n > en.layout.DataEnd {
				n = en.layout.DataEnd - off
			}
			en.dev.Release(en.dev.Write(off, n, ssd.AreaData))
			if issued++; issued%16 == 0 {
				WaitDevice(p, en.dev, en.dev.Flush(ssd.AreaData))
			}
		}
		WaitDevice(p, en.dev, en.dev.Flush(ssd.AreaData))
		for k := range en.ckpted {
			en.ckpted[k] = 1
		}
	})
}

// ---------------------------------------------------------------------------
// query paths (the op machine; see Ops)

// Get executes a read query: the newest version lives either in the active
// journal, in the journal half being checkpointed, or in the data area.
func (en *Engine) Get(q *Query) bool {
	switch q.Stage {
	case 0:
		if en.Gate(q) {
			return false
		}
		key := q.Op.Key
		// Entry objects are recycled once their table's checkpoint retires
		// it, so a laid-out log's placement (final from then on) is read
		// before the query parks.
		if e := en.jr.JMT().Latest(key); e != nil {
			if !e.committed {
				// still in the engine's memory buffer: no device access
				return true
			}
			q.Await(en.dev.ReadAfter(HostIOOverhead, e.off, int64(e.payload)))
			return en.readDone(q)
		}
		if en.ckptSnapshot != nil {
			if e := en.ckptSnapshot.Latest(key); e != nil {
				q.off, q.n = e.off, int64(e.payload)
				if e.stored == 0 {
					// The cut is still laying this log out; the read
					// takes wherever it landed. Its table cannot retire
					// before the checkpoint's own host overhead and
					// device commands have run, which outlasts this sleep.
					q.entry = e
				}
				q.Stage = 1
				return !q.Sleep(HostIOOverhead)
			}
		}
		off, size := en.layout.Record(key)
		q.Await(en.dev.ReadAfter(HostIOOverhead, off, int64(size)))
		return en.readDone(q)
	case 1:
		if q.entry != nil {
			q.off, q.entry = q.entry.off, nil
		}
		q.Await(en.dev.Read(q.off, q.n))
		return en.readDone(q)
	}
	return !en.WaitRelease(q)
}

// readDone moves q to the stage that waits for its reads, and reports
// whether they have completed.
func (en *Engine) readDone(q *Query) bool {
	q.Stage = 2
	return !en.WaitRelease(q)
}

// Update executes a write query: journal the new version (write-ahead) and
// wait for its group commit.
func (en *Engine) Update(q *Query) bool {
	if q.Stage != 0 {
		return true // woken by the commit
	}
	v, ok, parked := en.AdmitWrite(q)
	if parked || !ok {
		return !parked
	}
	_, commit := en.jr.Append(q.Op.Key, v, q.Size())
	if en.jr.UsedFrac() > en.cfg.JournalSoftFrac && !en.running {
		en.TriggerCheckpoint()
	}
	q.Stage = 1
	return !q.Wait(commit)
}

// Scan executes a range read of q.Op.ScanLen consecutive records starting
// at q.Op.Key (YCSB-E). The data-area portion is one sequential device
// read; records whose newest version still lives in the journal are read
// individually.
func (en *Engine) Scan(q *Query) bool {
	switch q.Stage {
	case 0:
		if en.AdmitScan(q) {
			return false
		}
		q.Stage = 1
		return !q.Sleep(HostIOOverhead)
	case 1:
		key, n := q.Op.Key, int64(q.Op.ScanLen)
		startOff, _ := en.layout.Record(key)
		lastOff, lastSize := en.layout.Record(key + n - 1)
		q.Await(en.dev.Read(startOff, lastOff+int64(lastSize)-startOff))
		for k := key; k < key+n; k++ {
			if e := en.jr.JMT().Latest(k); e != nil && e.committed {
				q.Await(en.dev.Read(e.off, int64(e.payload)))
			}
		}
		return en.readDone(q)
	}
	return !en.WaitRelease(q)
}

// ---------------------------------------------------------------------------
// checkpointing

// checkpoint is one checkpoint epoch: cut the journal, apply the old
// half's live logs to the data area with the configured strategy, and
// deallocate the old half.
func (en *Engine) checkpoint(p *sim.Proc, start sim.VTime) {
	// Publish the snapshot BEFORE the cut: CutForCheckpoint rotates the
	// active JMT synchronously but then yields waiting for the old
	// half's tail flush, and during those waits the old half's
	// committed logs must stay visible to Get() and to recovery — they
	// are the newest durable versions until the checkpoint applies.
	// (Assigning the snapshot only after the cut returned left a window
	// where they were invisible to both; the ckpt-cut injection site
	// caught it.)
	en.ckptSnapshot = en.jr.JMT()
	snap := en.jr.CutForCheckpoint(p)
	en.cfg.Tracer.Emit(start, trace.KindCheckpointBegin, int64(snap.jmt.Live()),
		fmt.Sprintf("entries=%d used=%dKB", snap.jmt.Len(), snap.used>>10))
	if snap.jmt.Live() > 0 {
		en.checkpointData(p, snap)
		// apply: the data area now holds the checkpointed versions
		for _, e := range snap.jmt.Entries() {
			if !e.old && e.version > en.ckpted[e.key] {
				en.ckpted[e.key] = e.version
			}
		}
		en.cfg.Injector.Hit(inject.SiteCheckpointApply)
		// the journal half is no longer needed: deallocate it
		if snap.used > 0 {
			trimLen := roundUp(snap.used, int64(en.dev.FTL().UnitSize()))
			WaitDevice(p, en.dev, en.dev.Deallocate(en.layout.JournalStart(snap.half), trimLen))
		}
	}
	en.ckptSnapshot = nil
	en.jr.retire(snap.jmt)
}

// ---------------------------------------------------------------------------
// crash recovery

// Recovery reports what a restarted instance would reconstruct after a
// crash at the current instant: the last checkpoint (the data area) plus
// every committed journal log (Section III-G). A half being checkpointed
// still has its logs on flash until the deallocate lands, so both tables
// replay. Pure — no simulated time passes, so it is safe to call from
// inside an engine event (the crash-injection harness does).
func (en *Engine) Recovery() *RecoveryReport {
	rep := en.NewRecoveryReport(slices.Clone(en.ckpted))
	for _, t := range []*JMT{en.ckptSnapshot, en.jr.JMT()} {
		if t == nil {
			continue
		}
		for _, e := range t.Entries() {
			if e.committed { // uncommitted logs are lost with the crash
				rep.Replay(e.key, e.version, e.stored)
			}
		}
	}
	rep.ScanLog(en.jr.HalfStart(en.jr.active), en.layout.JournalHalfBytes)
	return rep
}
