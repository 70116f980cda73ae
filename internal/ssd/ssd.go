// Package ssd models the Check-In SSD controller: an NVMe-like host
// interface with bounded queue depth and PCIe transfer costs, an embedded-
// CPU cost model, a DRAM data cache, and the in-storage checkpointing
// engine (ISCE) consisting of the log manager (journal write path), the
// checkpoint manager (CoW and remap command service, Algorithm 1) and the
// deallocator (journal trim and idle-time garbage collection).
//
// The storage engine talks to the device exclusively through this package's
// command methods — the simulated equivalent of the block I/O interface
// plus the paper's vendor-specific commands.
package ssd

import (
	"fmt"
	"unsafe"

	"github.com/checkin-kv/checkin/internal/dense"
	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
)

// Area tells the device which logical region a host write targets, standing
// in for the stream hints a real engine passes via write-hint/flexible data
// placement. It selects the FTL stream and accounting tag.
type Area uint8

// Host write areas. AreaCheckpoint marks host-issued writes that rewrite
// journaled data during an engine-side (baseline) checkpoint, so the FTL
// accounts them as duplicate writes.
const (
	AreaJournal Area = iota
	AreaData
	AreaCheckpoint
)

func (a Area) stream() ftl.Stream {
	if a == AreaJournal {
		return ftl.StreamJournal
	}
	return ftl.StreamData
}

func (a Area) tag() ftl.Tag {
	switch a {
	case AreaJournal:
		return ftl.TagHostJournal
	case AreaCheckpoint:
		return ftl.TagCheckpoint
	default:
		return ftl.TagHostData
	}
}

// Config parameterizes the controller.
type Config struct {
	// QueueDepth bounds in-flight commands (NVMe submission queue depth).
	QueueDepth int

	// PCIeMBps is the host link bandwidth in MB/s.
	PCIeMBps int

	// CmdBytes is the per-command overhead moved over the link
	// (submission entry + completion entry + doorbells).
	CmdBytes int

	// CPUPerCommand is embedded-CPU time to parse and dispatch a command.
	CPUPerCommand sim.VTime

	// CPUPerCoWEntry is embedded-CPU time per copy pair in a CoW command.
	CPUPerCoWEntry sim.VTime

	// CPUPerRemapEntry is embedded-CPU time per mapping-table update in a
	// checkpoint-request command (pure pointer work, cheaper than a copy).
	CPUPerRemapEntry sim.VTime

	// CacheBytes is DRAM available for the data cache (unit granularity,
	// LRU). Zero disables the cache.
	CacheBytes int64

	// DeallocatorPeriod is how often the deallocator checks for idle
	// windows to run background GC in. Zero disables the deallocator
	// process (GC then happens only in the foreground path).
	DeallocatorPeriod sim.VTime

	// BackgroundGCBatch is the number of victims collected per idle check.
	BackgroundGCBatch int

	// Injector, when set, receives crash-injection hits at the device-level
	// ISCE sites (checkpoint copy/remap service, deallocate). Nil in
	// production.
	Injector *inject.Injector

	// CommandTimeout, when nonzero, is the service-time budget per command:
	// a command whose back-end work exceeds it (error-recovery ladders under
	// the NAND fault model) completes only after an extra timeoutBackoff —
	// the host-visible cost of the timeout/abort/retry exchange. Zero
	// disables detection entirely.
	CommandTimeout sim.VTime
}

// timeoutBackoff is what a command that blew CommandTimeout pays on top of
// its back-end service.
const timeoutBackoff = sim.Millisecond

// DefaultConfig returns the controller settings of a mid-range NVMe
// datacenter SSD that the stack's Config does not carry: command overhead,
// embedded-CPU costs and the deallocator's cadence. The caller sets the
// queue depth, link bandwidth and data cache.
func DefaultConfig() Config {
	return Config{
		CmdBytes:          80,
		CPUPerCommand:     2 * sim.Microsecond,
		CPUPerCoWEntry:    1 * sim.Microsecond,
		CPUPerRemapEntry:  500 * sim.Nanosecond,
		DeallocatorPeriod: 10 * sim.Millisecond,
		BackgroundGCBatch: 2,
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.QueueDepth < 1 {
		return fmt.Errorf("ssd: QueueDepth %d must be >= 1", c.QueueDepth)
	}
	if c.PCIeMBps <= 0 {
		return fmt.Errorf("ssd: PCIeMBps %d must be positive", c.PCIeMBps)
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("ssd: CacheBytes %d must be >= 0", c.CacheBytes)
	}
	return nil
}

// Stats aggregates controller-level counters.
type Stats struct {
	Commands       uint64
	HostReadBytes  uint64
	HostWriteBytes uint64
	CacheHits      uint64
	CacheMisses    uint64
	CoWPairs       uint64
	RemapEntries   uint64
	Deallocates    uint64
	BackgroundGCs  uint64
	// Timeouts counts commands that blew the CommandTimeout budget and paid
	// the backoff penalty (always zero unless a timeout is configured).
	Timeouts uint64
	// QueueWait records time commands spent waiting for a queue slot.
	QueueWait stats1
}

// stats1 is a minimal mean accumulator (full histograms live at the engine
// level where per-query latency is measured).
type stats1 struct {
	N   uint64
	Sum sim.VTime
}

// Mean returns the average waiting time.
func (s stats1) Mean() sim.VTime {
	if s.N == 0 {
		return 0
	}
	return s.Sum / sim.VTime(s.N)
}

func (s *stats1) add(v sim.VTime) { s.N++; s.Sum += v }

// CoWPair is one source→destination range of a CoW command.
type CoWPair struct {
	Src, Dst, Len int64
}

// RemapEntry is one JMT record shipped in a checkpoint-request command:
// remap the journal range onto the target range. Old indicates the log was
// superseded by a newer version (Algorithm 1 skips it).
type RemapEntry struct {
	Src, Dst, Len int64
	Old           bool
}

// Device is the simulated Check-In SSD.
type Device struct {
	eng *sim.Engine
	f   *ftl.FTL
	cfg Config

	queue *sim.Semaphore
	bus   sim.FIFOResource
	cpu   sim.FIFOResource
	// front is the kernel lane of front-end completions: each is booked
	// at the later of the two horizons above, which never move backwards,
	// so the lane takes them in order without a heap push.
	front sim.Lane

	cache *unitCache

	// deallocator scheduling state: armed tracks whether a tick event is
	// queued; paused makes the queued tick fire as a disarming no-op (events
	// cannot be removed from the kernel queue, so pausing lets the tick
	// cancel itself without doing GC work or re-arming).
	deallocArmed  bool
	deallocPaused bool

	// free holds released command records whose commands have finished,
	// ready for the next command (see Release).
	free []*command

	stats Stats
}

// New wraps an FTL in a controller.
func New(eng *sim.Engine, f *ftl.FTL, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		eng:   eng,
		f:     f,
		cfg:   cfg,
		queue: sim.NewSemaphore(eng, cfg.QueueDepth),
		front: eng.NewLane(),
	}
	if cfg.CacheBytes > 0 {
		d.cache = newUnitCache(cfg.CacheBytes / int64(f.UnitSize()))
	}
	if cfg.DeallocatorPeriod > 0 {
		d.startDeallocator()
	}
	return d, nil
}

// FTL exposes the translation layer for reporting.
func (d *Device) FTL() *ftl.FTL { return d.f }

// Stats returns a snapshot of controller counters.
func (d *Device) Stats() Stats { return d.stats }

// LogicalBytes returns the device's exported capacity.
func (d *Device) LogicalBytes() int64 { return d.f.LogicalBytes() }

// SimulateSPOR models a sudden power-off followed by the device's own
// OOB-scan recovery (Section III-G); see ftl.FTL.SimulateSPOR.
func (d *Device) SimulateSPOR() *ftl.SPORReport { return d.f.SimulateSPOR() }

// ReadOnly reports whether the device degraded to read-only mode: block
// retirements exhausted the spare pool, so new host writes are refused
// while reads (and internal housekeeping) keep working.
func (d *Device) ReadOnly() bool { return d.f.ReadOnly() }

// Health surfaces the FTL's reliability summary (retired blocks, spares
// left, read-only latch) over the device interface.
func (d *Device) Health() ftl.Health { return d.f.Health() }

// linkTime returns PCIe transfer time for n bytes.
func (d *Device) linkTime(n int) sim.VTime {
	if n <= 0 {
		return 0
	}
	return sim.VTime(uint64(n) * 1000 / uint64(d.cfg.PCIeMBps))
}

// Command kinds: which back-end work a command record runs once its front
// end is done.
const (
	cmdRead uint8 = iota
	cmdWrite
	cmdFlush
	cmdDeallocate
	cmdCoW
	cmdMultiCoW
	cmdCheckpoint
)

// Command stages: what a command record's next Fire does.
const (
	stageQueued   uint8 = iota // waiting for a queue slot
	stageFrontEnd              // slot held; link transfer and controller CPU booked
	stageBackEnd               // back-end work issued
	stageBackoff               // back end blew CommandTimeout; paying timeoutBackoff
	stageHost                  // a ReadAfter's host overhead elapsing; not yet issued
)

// cmdTag marks the futures that are command records (sim.Future.SetTag).
const cmdTag = 1

// command is one host command in flight, and its one allocation: the
// completion future the caller waits on, the op kind with its arguments,
// the stage it has reached, and the fan-in its flash work joins. The kernel
// fires the record itself as the queue-slot grant, the front-end timer and
// the back-end waiter, so a command builds no closures. A record is reused
// only after its holder hands the future back with Release and the command
// has finished; a future never released is garbage collected. The future
// must stay the first field: Release converts it back to the record.
type command struct {
	sim.Future // completes when the back end is done and the slot released
	fan        sim.FanIn
	d          *Device
	kind       uint8
	stage      uint8
	area       Area
	released   bool      // the holder gave the future back (Release)
	bytes      int       // data moved over the link with the command
	cpu        sim.VTime // controller CPU beyond CPUPerCommand
	t          sim.VTime // arrival while queued, back-end start afterwards

	off, dst, n int64 // Read/Write/Deallocate range; CoW source, destination, length
	pairs       []CoWPair
	entries     []RemapEntry
}

// command returns a record holding proto's kind and arguments, recycled
// from the free list when one is there.
func (d *Device) command(proto command) *command {
	var c *command
	if n := len(d.free); n > 0 {
		c = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		c = new(command)
	}
	*c = proto
	c.Init(d.eng)
	c.SetTag(cmdTag)
	c.fan.Init(d.eng)
	c.d = d
	return c
}

// submit queues c for a slot. Once one is granted the command pays its
// front-end costs (link transfer of the command plus c.bytes, controller
// CPU of CPUPerCommand plus c.cpu), then runs its back-end work; its
// future completes when that work is done and the slot has been released.
func (d *Device) submit(c *command) *sim.Future {
	c.stage = stageQueued
	c.t = d.eng.Now()
	d.stats.Commands++
	d.queue.AcquireAsyncHandler(c)
	return &c.Future
}

// Release hands back a future this device returned for a command: the
// holder will not wait on it or read it again. The record returns to the
// free list once the command has finished, at once if it already has.
// Releasing a future twice, or one this device did not issue, panics; a
// future released twice after its record was reused cannot be told apart
// and corrupts the new command, so each holder releases exactly once.
func (d *Device) Release(f *sim.Future) {
	if f.Tag() != cmdTag {
		panic("ssd: Release of a future that is not a device command")
	}
	c := (*command)(unsafe.Pointer(f)) // the future is the record's first field
	switch {
	case c.d != d:
		panic("ssd: Release of another device's command")
	case c.released:
		panic("ssd: command future released twice")
	}
	c.released = true
	if c.Done() {
		d.free = append(d.free, c)
	}
}

// PooledCommands returns how many command records wait in the free list
// for reuse. A holder that releases every command it issues leaves the
// list as long as it found it once those commands have finished.
func (d *Device) PooledCommands() int { return len(d.free) }

// Fire advances the command one stage; see the stage constants.
func (c *command) Fire() {
	d := c.d
	now := d.eng.Now()
	switch c.stage {
	case stageQueued:
		d.stats.QueueWait.add(now - c.t)
		_, busEnd := d.bus.Reserve(now, d.linkTime(d.cfg.CmdBytes+c.bytes))
		_, cpuEnd := d.cpu.Reserve(now, d.cfg.CPUPerCommand+c.cpu)
		c.stage = stageFrontEnd
		d.eng.AtLane(d.front, max(busEnd, cpuEnd), c)
	case stageFrontEnd:
		c.t = now
		c.stage = stageBackEnd
		c.backEnd().OnCompleteHandler(c)
	case stageBackEnd:
		if d.cfg.CommandTimeout > 0 && now-c.t > d.cfg.CommandTimeout {
			// the command blew its service budget: the host timed it out
			// and re-drove it, costing an extra backoff before completion
			// is observed
			d.stats.Timeouts++
			c.stage = stageBackoff
			d.eng.AtHandler(now+timeoutBackoff, c)
			return
		}
		c.finish()
	case stageBackoff:
		c.finish()
	case stageHost:
		d.issueRead(c)
	}
}

func (c *command) finish() {
	d := c.d
	d.queue.Release()
	c.Complete()
	if c.released {
		d.free = append(d.free, c)
	}
}

// backEnd starts the command's device-side work at the moment the device
// begins executing it, and returns the future of that work. Host reads,
// writes and flushes join their flash work in the record's own fan-in.
func (c *command) backEnd() *sim.Future {
	d := c.d
	switch c.kind {
	case cmdRead:
		if d.cacheLookup(c.off, c.n) == 0 {
			// full cache hit: DRAM access only; completion after the
			// data crosses the link (accounted in the front end)
			return sim.CompletedFuture(d.eng)
		}
		d.f.ReadInto(c.off, c.n, &c.fan)
		return c.fan.Close()
	case cmdWrite:
		d.cacheInsert(c.off, c.n)
		d.f.WriteInto(c.off, c.n, c.area.tag(), c.area.stream(), &c.fan)
		return c.fan.Close()
	case cmdFlush:
		d.f.SyncInto(c.area.stream(), c.area.tag(), &c.fan)
		return c.fan.Close()
	case cmdDeallocate:
		d.cacheInvalidate(c.off, c.n)
		d.f.Trim(c.off, c.n)
		d.cfg.Injector.Hit(inject.SiteDeallocate)
		return sim.CompletedFuture(d.eng)
	case cmdCoW:
		cached := d.cacheLookup(c.off, c.n) == 0
		d.cacheInvalidate(c.dst, c.n)
		cf := d.f.CopyCached(c.off, c.dst, c.n, ftl.TagCheckpoint, cached)
		sf := d.f.Sync(ftl.StreamData, ftl.TagCheckpoint)
		d.cfg.Injector.Hit(inject.SiteCheckpointCopy)
		return sim.AfterAll(d.eng, []*sim.Future{cf, sf})
	case cmdMultiCoW:
		futs := make([]*sim.Future, 0, len(c.pairs)+1)
		for _, p := range c.pairs {
			cached := d.cacheLookup(p.Src, p.Len) == 0
			d.cacheInvalidate(p.Dst, p.Len)
			futs = append(futs, d.f.CopyCached(p.Src, p.Dst, p.Len, ftl.TagCheckpoint, cached))
		}
		// one durability barrier per command: copies batch into full pages
		futs = append(futs, d.f.Sync(ftl.StreamData, ftl.TagCheckpoint))
		d.cfg.Injector.Hit(inject.SiteCheckpointCopy)
		return sim.AfterAll(d.eng, futs)
	case cmdCheckpoint:
		var futs []*sim.Future
		for _, e := range c.entries {
			if e.Old {
				continue
			}
			cached := d.cacheLookup(e.Src, e.Len) == 0
			d.cacheInvalidate(e.Dst, e.Len)
			_, f := d.f.RemapCached(e.Src, e.Dst, e.Len, cached)
			if !f.Done() {
				futs = append(futs, f)
			}
		}
		d.cfg.Injector.Hit(inject.SiteCheckpointRemap)
		return sim.AfterAll(d.eng, futs)
	}
	panic(fmt.Sprintf("ssd: unknown command kind %d", c.kind))
}

// Read services a host read of n bytes at off. Units resident in the DRAM
// cache are served without flash reads; the rest go to the FTL.
func (d *Device) Read(off, n int64) *sim.Future {
	return d.issueRead(d.readCommand(off, n))
}

// ReadAfter is Read issued delay from now — the host software path a block
// request pays before it reaches the device — with the record itself as
// the timer. It dispatches exactly as a process's Sleep(delay) then Read:
// the timer draws its sequence number where Sleep's wake-up would have,
// and at that instant the read is issued as Read would issue it.
func (d *Device) ReadAfter(delay sim.VTime, off, n int64) *sim.Future {
	c := d.readCommand(off, n)
	c.stage = stageHost
	d.eng.AtHandler(d.eng.Now()+delay, c)
	return &c.Future
}

func (d *Device) readCommand(off, n int64) *command {
	return d.command(command{kind: cmdRead, bytes: int(n), off: off, n: n})
}

func (d *Device) issueRead(c *command) *sim.Future {
	d.stats.HostReadBytes += uint64(c.n)
	return d.submit(c)
}

// Write services a host write of n bytes at off into the given area. The
// future completes when the data is durable on flash (journal semantics
// require an explicit Flush for buffered tails; see Flush).
func (d *Device) Write(off, n int64, area Area) *sim.Future {
	d.stats.HostWriteBytes += uint64(n)
	return d.submit(d.command(command{kind: cmdWrite, area: area, bytes: int(n), off: off, n: n}))
}

// Flush forces buffered partial pages of the area's stream to flash — the
// device-side half of a journal commit (FLUSH/FUA semantics).
func (d *Device) Flush(area Area) *sim.Future {
	return d.submit(d.command(command{kind: cmdFlush, area: area}))
}

// Deallocate trims a logical range (journal deletion after checkpointing).
func (d *Device) Deallocate(off, n int64) *sim.Future {
	d.stats.Deallocates++
	return d.submit(d.command(command{kind: cmdDeallocate, off: off, n: n}))
}

// CoW executes a single-pair copy-on-write command (ISC-A): the device
// copies the range internally; no data crosses the host link.
func (d *Device) CoW(src, dst, n int64) *sim.Future {
	d.stats.CoWPairs++
	return d.submit(d.command(command{kind: cmdCoW, cpu: d.cfg.CPUPerCoWEntry, off: src, dst: dst, n: n}))
}

// MultiCoW executes a batched copy command (ISC-B): one submission carries
// many pairs, drastically reducing command-queue pressure; the device
// orders the work as consecutive reads then consecutive writes.
func (d *Device) MultiCoW(pairs []CoWPair) *sim.Future {
	d.stats.CoWPairs += uint64(len(pairs))
	return d.submit(d.command(command{
		kind:  cmdMultiCoW,
		bytes: len(pairs) * 24,
		cpu:   sim.VTime(len(pairs)) * d.cfg.CPUPerCoWEntry,
		pairs: pairs,
	}))
}

// CheckpointRequest executes the paper's checkpoint command: the JMT
// metadata rides in the command payload; the checkpoint manager walks it
// (Algorithm 1), skipping OLD entries and remapping the rest. Aligned
// entries are pure mapping updates; unaligned ones degrade to in-device
// read-merge-writes, which the FTL counts (ftl.Stats Remaps, RemapRMWs).
// The returned future completes when the checkpoint is durable.
func (d *Device) CheckpointRequest(entries []RemapEntry) *sim.Future {
	live := 0
	for _, e := range entries {
		if !e.Old {
			live++
		}
	}
	d.stats.RemapEntries += uint64(live)
	return d.submit(d.command(command{
		kind:    cmdCheckpoint,
		bytes:   len(entries) * 25,
		cpu:     sim.VTime(live) * d.cfg.CPUPerRemapEntry,
		entries: entries,
	}))
}

// BeginCheckpointCut / EndCheckpointCut bracket one checkpoint's remap burst
// for the FTL's translation-metadata layer: between them, mapping-writeback
// work deferred by the dftl remap batch accumulates and settles once at the
// cut end (see ftl.BeginCheckpointCut). Zero-cost control-plane markers — no
// command is queued and nothing crosses the host link; no-ops in dram mode.
func (d *Device) BeginCheckpointCut() { d.f.BeginCheckpointCut() }

// EndCheckpointCut settles the remap-batch window opened by
// BeginCheckpointCut. Callers issue it after the last checkpoint-request
// command completed and before the checkpoint's durability barrier.
func (d *Device) EndCheckpointCut() { d.f.EndCheckpointCut() }

// ---------------------------------------------------------------------------
// deallocator: idle-window background GC

func (d *Device) startDeallocator() {
	d.armDeallocator()
}

// armDeallocator schedules the next deallocator tick. The device is the
// tick's handler (deallocTicker), so arming allocates nothing where a method
// value would escape to the heap once per tick; AtHandler draws the same
// sequence number Schedule would.
func (d *Device) armDeallocator() {
	d.deallocArmed = true
	d.eng.AtHandler(d.eng.Now()+d.cfg.DeallocatorPeriod, (*deallocTicker)(d))
}

// deallocTicker is the device as the kernel handler of its deallocator tick.
type deallocTicker Device

// Fire runs one deallocator tick.
func (t *deallocTicker) Fire() { (*Device)(t).deallocTick() }

// deallocTick is one deallocator wake-up: run background reclamation work if
// warranted, then re-arm. While paused the tick disarms itself instead — it
// must not advance any device state, so that a paused drain reaches a state
// a fork can copy and reproduce exactly. It also disarms once the kernel is
// stalled (sim.Engine.Stalled): a phase waits on a blocked process and
// nothing but this tick is left to run, so re-arming would spin forever
// where the phase should fail with the queue run dry.
func (d *Device) deallocTick() {
	if d.deallocPaused {
		d.deallocArmed = false
		return
	}
	now := d.eng.Now()
	// the tick is a safe depth for deferred fault handling (bad-block
	// retirements, read-reclaim scrubs) queued since the last host op
	d.f.DrainFaults()
	switch {
	case d.f.LowSpace():
		// space pressure: reclaim a small batch even while busy so
		// the foreground path never has to stall on a giant burst
		n := d.f.BackgroundGCForce(d.cfg.BackgroundGCBatch)
		d.stats.BackgroundGCs += uint64(n)
	case d.f.Array().AllDiesIdleAt(now) && d.f.HasCheapVictim():
		n := d.f.BackgroundGC(d.cfg.BackgroundGCBatch)
		d.stats.BackgroundGCs += uint64(n)
	case d.f.Array().AllDiesIdleAt(now):
		d.f.MaybeWearLevel()
	}
	if d.eng.Stalled() {
		d.deallocArmed = false
		return
	}
	d.armDeallocator()
}

// PauseDeallocator stops the periodic deallocator: the already-queued tick
// fires as a no-op and does not re-arm. With the deallocator paused the
// engine's event queue can drain completely (the tick is otherwise the one
// perpetual event), which is how callers reach a quiescent state.
func (d *Device) PauseDeallocator() { d.deallocPaused = true }

// ResumeDeallocator restarts the periodic deallocator, arming a tick one
// period from now unless one is still queued.
func (d *Device) ResumeDeallocator() {
	d.deallocPaused = false
	if !d.deallocArmed && d.cfg.DeallocatorPeriod > 0 {
		d.armDeallocator()
	}
}

// ---------------------------------------------------------------------------
// DRAM data cache (unit-granular LRU)

// unitCache is an intrusive LRU over parallel slot arrays: next/prev hold
// slot indices (-1 = none), head is the most recent entry and tail the
// eviction candidate. Slots are recycled through a free list threaded over
// next, so once the cache has been full the steady state allocates nothing —
// unlike container/list, which pays one heap Element per insert (and boxed
// the unit number on top). Churn-heavy workloads insert millions of times.
// The unit → slot index is dense (slot+1, 0 = absent) and lazily chunked:
// every host read and write probes it once per unit, and a chunk costs
// memory only once a unit in its range has been cached.
type unitCache struct {
	capacity int64
	units    []int64 // slot -> cached unit number
	next     []int32 // slot -> next-older slot, or free-list link
	prev     []int32 // slot -> next-newer slot
	head     int32   // most recently used, -1 when empty
	tail     int32   // least recently used, -1 when empty
	freeHead int32   // free-list head, -1 when none
	index    dense.Index
}

func newUnitCache(capUnits int64) *unitCache {
	if capUnits < 1 {
		return nil
	}
	return &unitCache{capacity: capUnits, head: -1, tail: -1, freeHead: -1}
}

// slot returns u's slot, or -1 when u is not resident.
func (c *unitCache) slot(u int64) int32 { return c.index.Get(u) - 1 }

// insertFront makes u resident as the most recent entry (u must be absent).
func (c *unitCache) insertFront(u int64) {
	s := c.alloc(u)
	c.pushFront(s)
	c.index.Set(u, s+1)
}

// remove evicts resident slot s.
func (c *unitCache) remove(s int32) {
	c.unlink(s)
	c.index.Clear(c.units[s])
	c.release(s)
}

// alloc returns a slot for unit u, recycling from the free list when
// possible. Slot-array growth stops once the cache reaches capacity.
func (c *unitCache) alloc(u int64) int32 {
	if s := c.freeHead; s >= 0 {
		c.freeHead = c.next[s]
		c.units[s] = u
		return s
	}
	c.units = append(c.units, u)
	c.next = append(c.next, -1)
	c.prev = append(c.prev, -1)
	return int32(len(c.units) - 1)
}

func (c *unitCache) pushFront(s int32) {
	c.prev[s] = -1
	c.next[s] = c.head
	if c.head >= 0 {
		c.prev[c.head] = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}

func (c *unitCache) unlink(s int32) {
	if p := c.prev[s]; p >= 0 {
		c.next[p] = c.next[s]
	} else {
		c.head = c.next[s]
	}
	if n := c.next[s]; n >= 0 {
		c.prev[n] = c.prev[s]
	} else {
		c.tail = c.prev[s]
	}
}

func (c *unitCache) moveToFront(s int32) {
	if c.head == s {
		return
	}
	c.unlink(s)
	c.pushFront(s)
}

func (c *unitCache) release(s int32) {
	c.next[s] = c.freeHead
	c.freeHead = s
}

func (d *Device) unitsOf(off, n int64) (first, last int64) {
	u := int64(d.f.UnitSize())
	if n <= 0 {
		return 0, -1
	}
	return off / u, (off + n - 1) / u
}

// cacheLookup touches all units of the range and returns how many missed.
func (d *Device) cacheLookup(off, n int64) int {
	if d.cache == nil {
		return int(n/int64(d.f.UnitSize())) + 1
	}
	first, last := d.unitsOf(off, n)
	miss := 0
	for u := first; u <= last; u++ {
		if s := d.cache.slot(u); s >= 0 {
			d.cache.moveToFront(s)
			d.stats.CacheHits++
		} else {
			miss++
			d.stats.CacheMisses++
		}
	}
	return miss
}

func (d *Device) cacheInsert(off, n int64) {
	if d.cache == nil {
		return
	}
	first, last := d.unitsOf(off, n)
	for u := first; u <= last; u++ {
		if s := d.cache.slot(u); s >= 0 {
			d.cache.moveToFront(s)
			continue
		}
		d.cache.insertFront(u)
		if int64(d.cache.index.Len()) > d.cache.capacity {
			d.cache.remove(d.cache.tail)
		}
	}
}

func (d *Device) cacheInvalidate(off, n int64) {
	if d.cache == nil {
		return
	}
	first, last := d.unitsOf(off, n)
	for u := first; u <= last; u++ {
		if s := d.cache.slot(u); s >= 0 {
			d.cache.remove(s)
		}
	}
}
