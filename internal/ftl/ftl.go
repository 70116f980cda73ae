// Package ftl implements the flash translation layer of the Check-In SSD:
// sub-page (sector) mapping from logical addresses to physical flash slots,
// log-structured write allocation with per-stream frontiers, read-modify-
// write handling for writes that partially cover a mapping unit, shared
// mappings with reference counts (the basis of checkpoint-by-remap),
// greedy wear-aware garbage collection, and a mapping-metadata cost model
// (map-cache misses and batched metadata flushes).
//
// Addresses on the FTL's logical interface are plain byte offsets; the
// mapping granularity is Config.UnitSize bytes (512 B by default, matching
// the paper's host sector size). One physical flash page holds
// PageSize/UnitSize slots.
package ftl

import (
	"fmt"
	"math"

	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/trace"
)

// Tag classifies the origin of a flash write for the paper's accounting
// (redundant writes, GC traffic, metadata traffic).
type Tag uint8

// Write-origin tags.
const (
	TagHostJournal Tag = iota // journal-area writes from the storage engine
	TagHostData               // data-area writes from the storage engine
	TagCheckpoint             // checkpoint-induced copies / merges inside the device
	TagGC                     // garbage-collection migration
	TagMeta                   // mapping-table metadata flushes
	numTags
)

// String names the tag.
func (t Tag) String() string {
	switch t {
	case TagHostJournal:
		return "host-journal"
	case TagHostData:
		return "host-data"
	case TagCheckpoint:
		return "checkpoint"
	case TagGC:
		return "gc"
	case TagMeta:
		return "meta"
	default:
		return fmt.Sprintf("tag(%d)", uint8(t))
	}
}

// Stream selects a write frontier. Separating streams keeps journal pages
// (short-lived, trimmed at every checkpoint) away from data pages, which is
// what makes journal blocks cheap to reclaim.
type Stream uint8

// Write streams.
const (
	StreamJournal Stream = iota
	StreamData
	StreamGC
	StreamMeta
	// StreamTrans carries flash-resident translation pages (dftl mode only;
	// never allocated under the default DRAM-resident mapping).
	StreamTrans
	numStreams
)

// GCPolicy selects the garbage-collection victim policy.
type GCPolicy uint8

// Victim-selection policies.
const (
	// GCGreedy picks the closed block with the fewest valid slots —
	// minimal migration per reclaimed block (the default, and what the
	// paper's SimpleSSD substrate uses).
	GCGreedy GCPolicy = iota
	// GCCostBenefit weighs reclaimable space against migration cost and
	// block age: (invalid/valid') * age, preferring older blocks whose
	// remaining valid data is likely cold (Rosenblum's cleaning policy).
	GCCostBenefit
	// GCFIFO collects the oldest closed block regardless of validity —
	// the simplest policy, included as a lower bound.
	GCFIFO
)

// String names the policy.
func (p GCPolicy) String() string {
	switch p {
	case GCGreedy:
		return "greedy"
	case GCCostBenefit:
		return "cost-benefit"
	case GCFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Config parameterizes the FTL.
type Config struct {
	// UnitSize is the mapping unit in bytes (512, 1024, 2048 or 4096 in
	// the paper's sensitivity study). Must divide the flash page size.
	UnitSize int

	// OverProvision is the fraction of raw capacity reserved for GC
	// headroom (0.12 ≈ a commodity 7% + parity-ish reserve).
	OverProvision float64

	// GCLowWater triggers foreground GC when free blocks drop below it;
	// GC collects victims until GCHighWater free blocks are available.
	GCLowWater  int
	GCHighWater int

	// Parallelism is the number of open blocks per stream; pages of a
	// stream stripe across them (and hence across dies/channels).
	Parallelism int

	// MapCacheBytes is the device DRAM available for the mapping table.
	// Lookups beyond the cached fraction cost a simulated map-page fetch.
	MapCacheBytes int64

	// MapMissPenalty is the latency of fetching a mapping page on a map
	// cache miss.
	MapMissPenalty sim.VTime

	// MetaFlushEntries is the number of dirty mapping entries accumulated
	// before a metadata page is flushed to flash (one page's worth is the
	// page size / 8 bytes per entry).
	MetaFlushEntries int

	// WearDeltaThreshold enables static wear leveling: when the spread
	// between the most- and least-erased blocks reaches this many P/E
	// cycles, the coldest block is migrated so its cells rejoin the
	// allocation pool. 0 disables static wear leveling.
	WearDeltaThreshold uint32

	// Tracer, when non-nil, receives GC and wear-leveling events.
	Tracer *trace.Tracer

	// Injector, when non-nil, receives crash-injection hits at the FTL's
	// instrumented sites (metadata flush, GC collection, wear leveling).
	Injector *inject.Injector

	// GCPolicy selects the victim policy (default GCGreedy).
	GCPolicy GCPolicy

	// SpareBlocksPerDie reserves erased blocks per die that replace blocks
	// retired after program/erase failures. When the pool is exhausted the
	// FTL degrades to read-only. 0 reserves nothing (reliability off).
	SpareBlocksPerDie int

	// FlashMap enables the DFTL-style flash-resident mapping table (see
	// dftl.go): a bounded CMT in controller DRAM backed by translation
	// pages on flash, replacing the probabilistic map-cache model with real
	// NAND traffic for mapping misses, writebacks and translation-page GC.
	FlashMap bool

	// CMTEntries bounds the cached mapping table under FlashMap, in
	// entries. A bound below MinCMTEntries runs as MinCMTEntries.
	CMTEntries int

	// CMTBasic turns the CMT optimizations of the DFTL layer off (page-fill
	// on miss, clean-first eviction, the checkpoint-cut remap batch and the
	// post-GC trim): the FTL runs the basic layer, strict LRU with a
	// demanded-entry insert per miss. Only meaningful under FlashMap.
	CMTBasic bool
}

// DefaultConfig returns the FTL settings the stack's Config does not
// carry: the GC watermarks and the map-cache miss penalty. The caller sets
// the mapping unit, over-provisioning, parallelism, map cache and flush
// thresholds.
func DefaultConfig() Config {
	return Config{
		GCLowWater:     4,
		GCHighWater:    8,
		MapMissPenalty: 60 * sim.Microsecond,
	}
}

// MinCMTEntries is the smallest cached-mapping-table bound the flash map
// runs with at page size pageSize: two translation pages' worth of entries.
// Below it the CMT would thrash on a single flush batch.
func MinCMTEntries(pageSize int) int { return 2 * pageSize / 8 }

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate(pageSize int) error {
	if c.UnitSize <= 0 || pageSize%c.UnitSize != 0 {
		return fmt.Errorf("ftl: UnitSize %d must be positive and divide page size %d", c.UnitSize, pageSize)
	}
	if c.OverProvision < 0 || c.OverProvision >= 1 {
		return fmt.Errorf("ftl: OverProvision %v out of [0,1)", c.OverProvision)
	}
	if c.GCLowWater < 1 || c.GCHighWater <= c.GCLowWater {
		return fmt.Errorf("ftl: GC watermarks low=%d high=%d invalid", c.GCLowWater, c.GCHighWater)
	}
	if c.Parallelism < 1 {
		return fmt.Errorf("ftl: Parallelism %d must be >= 1", c.Parallelism)
	}
	if c.MetaFlushEntries < 1 {
		return fmt.Errorf("ftl: MetaFlushEntries %d must be >= 1", c.MetaFlushEntries)
	}
	if c.FlashMap && c.CMTEntries < 1 {
		return fmt.Errorf("ftl: CMTEntries %d must be >= 1", c.CMTEntries)
	}
	return nil
}

// MaxAddresses bounds both the slot count and the logical-unit count of a
// device: the address tables store 32-bit entries, with -1 for none.
const MaxAddresses = math.MaxInt32

// CheckAddressable reports an error when geometry geo, mapped in unit-byte
// units with the given over-provisioning, holds more slots or logical units
// than MaxAddresses. It is overflow-safe arithmetic and allocates nothing,
// so a caller can refuse a geometry before building any layer. A unit that
// does not divide the page is left to Validate.
func CheckAddressable(geo nand.Geometry, unit int, overProvision float64) error {
	if err := geo.Validate(); err != nil {
		return err
	}
	if unit <= 0 {
		return fmt.Errorf("ftl: UnitSize %d must be positive", unit)
	}
	pages, ok := boundedProduct(MaxAddresses, geo.Channels, geo.PackagesPerChannel, geo.DiesPerPackage,
		geo.PlanesPerDie, geo.BlocksPerPlane, geo.PagesPerBlock)
	if ok {
		// As New derives it: the raw capacity shrunk by the
		// over-provisioning, in whole units.
		units := float64(pages) * float64(geo.PageSize) / (1 + overProvision) / float64(unit)
		if units >= MaxAddresses+1 {
			return fmt.Errorf("ftl: geometry holds more than %d logical units of %d B, the most 32-bit addresses reach", MaxAddresses, unit)
		}
		_, ok = boundedProduct(MaxAddresses, int(pages), geo.PageSize/unit)
	}
	if !ok {
		return fmt.Errorf("ftl: geometry holds more than %d slots of %d B, the most 32-bit addresses reach", MaxAddresses, unit)
	}
	return nil
}

// CheckSpareReserve reports an error when geometry geo cannot hold c's
// spare reserve beside the working blocks the FTL needs. The FTL keeps
// blocks free or open at all times: the GC high-water mark and one open
// block per write frontier (Parallelism per stream). A die's working
// blocks, those its spares leave, must number at least twice its share of
// them, so that as many again can hold the closed blocks GC picks victims
// from. Spares taken beyond that leave GC nothing to reclaim into once
// faults retire blocks, and the FTL runs out of free blocks (a panic in
// allocBlock) instead of degrading to read-only. New does not check it: a
// caller that bounds the data it writes may run a smaller working set.
func (c Config) CheckSpareReserve(geo nand.Geometry) error {
	dies := geo.TotalDies()
	streams := int(numStreams)
	if !c.FlashMap {
		streams-- // StreamTrans never opens a block
	}
	held := c.GCHighWater + streams*min(c.Parallelism, dies)
	most := geo.BlocksPerDie() - 2*((held+dies-1)/dies)
	if c.SpareBlocksPerDie > most {
		return fmt.Errorf("ftl: %d spare blocks per die leave too few working blocks: a die of %d blocks holds at most %d beside twice its share of the %d blocks the GC high-water mark and the open frontiers keep over %d dies",
			c.SpareBlocksPerDie, geo.BlocksPerDie(), max(most, 0), held, dies)
	}
	return nil
}

// boundedProduct multiplies the non-negative factors xs, reporting false as
// soon as the product exceeds bound.
func boundedProduct(bound int64, xs ...int) (int64, bool) {
	p := int64(1)
	for _, x := range xs {
		if x == 0 {
			return 0, true
		}
		if int64(x) > bound/p {
			return 0, false
		}
		p *= int64(x)
	}
	return p, true
}

// Stats aggregates FTL-level counters. Flash op totals live in nand.Stats;
// these split them by cause.
type Stats struct {
	ProgramsByTag [numTags]uint64
	ReadsByTag    [numTags]uint64

	// Remaps counts mapping units checkpointed by pure map update;
	// RemapRMWs counts units that needed read-merge-write because the
	// source bytes were not aligned to the mapping unit.
	Remaps    uint64
	RemapRMWs uint64

	// HostRMWReads counts extra reads caused by writes partially covering
	// a mapped unit.
	HostRMWReads uint64

	// GCInvocations counts garbage collections that migrated live data;
	// DeadReclaims counts trivially reclaimed fully-invalid blocks (e.g.
	// journal blocks after a checkpoint trim), which cost one erase and
	// no data movement.
	GCInvocations  uint64
	DeadReclaims   uint64
	GCMigratedSlot uint64

	// DeadPaddingSlots counts slots thrown away when a partially filled
	// page had to be programmed at a sync point.
	DeadPaddingSlots uint64

	MapMisses   uint64
	MetaFlushes uint64

	TrimmedUnits uint64

	// WearLevelMoves counts static wear-leveling migrations.
	WearLevelMoves uint64

	// Reliability-path counters (all zero when the NAND fault model is off).
	// ProgramFailMoves counts page buffers restaged on a fresh block after a
	// program failure; RetiredBlocks counts blocks permanently retired;
	// ReadReclaims counts blocks scrubbed after an uncorrectable read.
	ProgramFailMoves uint64
	RetiredBlocks    uint64
	ReadReclaims     uint64

	// DFTL-mode counters (all zero under the DRAM-resident mapping):
	// cached-mapping-table traffic, translation-page writeback programs,
	// translation-page reads (demand fetches plus flush RMW plus GC reads),
	// and live translation pages relocated by GC.
	CMTHits       uint64
	CMTMisses     uint64
	CMTEvictions  uint64
	TransFlushes  uint64
	TransReads    uint64
	TransMigrated uint64

	// Origin split of the DFTL traffic. CMTHits/CMTMisses above count the
	// host lookup path (fmAccessRange); CMTHitsGC/CMTMissesGC count
	// device-internal mapping updates — GC rebinding and dirtying triggered
	// inside a writeback. TransReads above is the total;
	// TransReadsHost + TransReadsRMW + TransReadsGC == TransReads, splitting
	// it into host demand fetches, flush read-modify-writes, and GC
	// relocation reads.
	CMTHitsGC      uint64
	CMTMissesGC    uint64
	TransReadsHost uint64
	TransReadsRMW  uint64
	TransReadsGC   uint64
}

// RedundantWrites returns the paper's "duplicate writes" metric: programs
// whose payload already existed on flash (checkpoint copies/merges plus GC
// migration rewrites).
func (s Stats) RedundantWrites() uint64 {
	return s.ProgramsByTag[TagCheckpoint] + s.ProgramsByTag[TagGC]
}

type blockState uint8

const (
	blockFree blockState = iota
	blockOpen
	blockClosed
	// blockSpare blocks sit in the reserved replacement pool: erased, never
	// allocated, promoted to blockFree when a retirement consumes them.
	blockSpare
	// blockBad blocks are permanently retired (grown bad blocks): their live
	// data has migrated and they never rejoin any pool.
	blockBad
)

type frontier struct {
	block    int // -1 when no block is open
	fillLSNs []int64
	fillTag  Tag // origin of the currently buffered slots

	// relocBase is the slot id of buffered slot 0 after a program failure
	// relocated this frontier's page buffer — transient signal from
	// handleProgramFail back to the appendSlot call still on the stack,
	// which re-derives the slot id it is about to return. Not state.
	relocBase int64
}

// FTL is the flash translation layer instance.
type FTL struct {
	cfg   Config
	eng   *sim.Engine
	array *nand.Array

	unit         int
	slotsPerPage int
	pagesPerBlk  int
	totalBlocks  int

	logicalBytes int64
	totalUnits   int64

	// map: logical unit number → physical slot id (-1 unmapped). The
	// address tables hold 32-bit entries, as a controller's would: New
	// refuses a geometry past MaxAddresses slots or logical units, and every
	// signature keeps int64. Forks share them chunk by chunk (chunkTable).
	l2p chunkTable[int32]
	// per-slot reference count (shared mappings after remap)
	refcnt chunkTable[uint8]
	// primary reverse mapping slot → logical unit (-1 free/dead)
	rev chunkTable[int32]
	// extra reverse mappings for slots with refcnt > 1 (transient between
	// checkpoint remap and journal trim)
	revOverflow slotTable[int32]

	state      []blockState
	validCount []int32
	written    []int32 // slots consumed in each block (valid + invalid + dead)
	closedSeq  []int64 // logical close time (monotonic counter; age input)
	closeClock int64

	freeByDie [][]int
	freeCount int

	// Reliability state: the spare-block replacement pool, retired-block
	// count, the read-only degradation latch, and the deferred fault-handling
	// queues (see reliability.go). pendingMark dedups queue membership.
	spareByDie     [][]int
	spareCount     int
	badCount       int
	readOnly       bool
	pendingRetire  []int
	pendingReclaim []int
	pendingMark    []uint8

	fronts [numStreams][]frontier
	rr     [numStreams]int
	// programs logs each stream's page programs since its last Sync, which
	// waits for those still in flight (staged-write semantics: host writes
	// complete at the DRAM buffer; Flush provides durability)
	programs [numStreams]progLog

	// map-metadata cost model
	dirtyMapEntries int
	mapMissAccum    float64
	mapEngine       sim.FIFOResource

	gcDepth int // re-entrancy guard: GC's own writes must not trigger GC

	// gcVictim is the block currently being collected, or -1. Victim
	// selection (pick, HasCheapVictim in victim.go) skips it.
	gcVictim int

	// partial[s] is the frontier index of stream s holding a partially
	// filled page, or -1 — appendSlot's "finish the open page first" rule
	// guarantees at most one per stream, so tracking it replaces a
	// per-append scan over the stream's frontiers.
	partial [numStreams]int

	// lunsBuf is the scratch buffer behind lunsOf: the GC migrate loop
	// calls it once per valid slot, and a fresh slice per call was a
	// measurable allocation source on GC-heavy runs.
	lunsBuf []int64

	// Epoch-stamped page-grouping scratch shared by ReadInto and CopyCached:
	// pageEpoch[pid] == epoch marks page pid as seen by the current call,
	// so grouping slot reads by physical page needs no per-call map. The
	// epoch only ever increments, which keeps stale stamps harmless.
	epoch     uint64
	pageEpoch []uint64
	pageCount []int32
	pageOrder []int64

	// fm is the DFTL-style flash-resident mapping layer (dftl.go); its zero
	// value is the disabled layer (DRAM-resident mapping, the default).
	fm flashMap

	// rlog is the persistent recovery state (OOB records, remap aliases,
	// trim extents, translation-page records) backing SimulateSPOR.
	rlog *recoveryLog

	stats Stats
}

// New builds an FTL over the given array.
func New(eng *sim.Engine, array *nand.Array, cfg Config) (*FTL, error) {
	geo := array.Geometry()
	if err := cfg.Validate(geo.PageSize); err != nil {
		return nil, err
	}
	if err := CheckAddressable(geo, cfg.UnitSize, cfg.OverProvision); err != nil {
		return nil, err
	}
	f := &FTL{
		cfg:          cfg,
		eng:          eng,
		array:        array,
		unit:         cfg.UnitSize,
		slotsPerPage: geo.PageSize / cfg.UnitSize,
		pagesPerBlk:  geo.PagesPerBlock,
		totalBlocks:  geo.TotalBlocks(),
	}
	physBytes := geo.TotalBytes()
	f.logicalBytes = int64(float64(physBytes) / (1 + cfg.OverProvision))
	f.logicalBytes -= f.logicalBytes % int64(f.unit)
	f.totalUnits = f.logicalBytes / int64(f.unit)

	totalSlots := int64(geo.TotalPages()) * int64(f.slotsPerPage)
	f.l2p = newChunkTable[int32](f.totalUnits, -1)
	f.refcnt = newChunkTable[uint8](totalSlots, 0)
	f.rev = newChunkTable[int32](totalSlots, -1)
	f.state = make([]blockState, f.totalBlocks)
	f.validCount = make([]int32, f.totalBlocks)
	f.written = make([]int32, f.totalBlocks)
	f.closedSeq = make([]int64, f.totalBlocks)
	f.gcVictim = -1

	totalPages := int64(geo.TotalPages())
	f.pageEpoch = make([]uint64, totalPages)
	f.pageCount = make([]int32, totalPages)

	dies := geo.TotalDies()
	f.freeByDie = make([][]int, dies)
	for b := f.totalBlocks - 1; b >= 0; b-- {
		d := geo.DieOfBlock(b)
		f.freeByDie[d] = append(f.freeByDie[d], b)
	}
	f.freeCount = f.totalBlocks

	f.spareByDie = make([][]int, dies)
	f.pendingMark = make([]uint8, f.totalBlocks)
	for d := range f.freeByDie {
		for i := 0; i < cfg.SpareBlocksPerDie && len(f.freeByDie[d]) > 0; i++ {
			last := len(f.freeByDie[d]) - 1
			b := f.freeByDie[d][last]
			f.freeByDie[d] = f.freeByDie[d][:last]
			f.freeCount--
			f.state[b] = blockSpare
			f.spareByDie[d] = append(f.spareByDie[d], b)
			f.spareCount++
		}
	}
	par := cfg.Parallelism
	if par > dies {
		par = dies
	}
	for s := Stream(0); s < numStreams; s++ {
		f.fronts[s] = make([]frontier, par)
		for i := range f.fronts[s] {
			f.fronts[s][i].block = -1
		}
		f.partial[s] = -1
	}

	slotsPerBlock := int64(f.pagesPerBlk * f.slotsPerPage)
	f.revOverflow = newSlotTable[int32](f.totalBlocks, slotsPerBlock)
	f.rlog = newRecoveryLog(f.totalBlocks, slotsPerBlock)
	if cfg.FlashMap {
		if err := f.initFlashMap(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// LogicalBytes returns the exported logical capacity.
func (f *FTL) LogicalBytes() int64 { return f.logicalBytes }

// UnitSize returns the mapping unit in bytes.
func (f *FTL) UnitSize() int { return f.unit }

// Stats returns a snapshot of the FTL counters.
func (f *FTL) Stats() Stats { return f.stats }

// Array returns the underlying flash array (for device-level reporting).
func (f *FTL) Array() *nand.Array { return f.array }

// FreeBlocks returns the number of erased blocks available for allocation.
func (f *FTL) FreeBlocks() int { return f.freeCount }

// MappingTableBytes returns the in-device size of the full mapping table
// (8 bytes per logical unit), the quantity the map cache model divides by.
func (f *FTL) MappingTableBytes() int64 { return f.totalUnits * 8 }

// ---------------------------------------------------------------------------
// slot arithmetic

func (f *FTL) slotID(block, page, slot int) int64 {
	return (int64(block)*int64(f.pagesPerBlk)+int64(page))*int64(f.slotsPerPage) + int64(slot)
}

func (f *FTL) slotBlock(sid int64) int {
	return int(sid / int64(f.slotsPerPage) / int64(f.pagesPerBlk))
}

func (f *FTL) slotPage(sid int64) int {
	return int(sid / int64(f.slotsPerPage) % int64(f.pagesPerBlk))
}

// isBuffered reports whether the slot's page has not been programmed yet —
// its payload still sits in the controller's page buffer (DRAM), so reading
// it costs no flash operation.
func (f *FTL) isBuffered(sid int64) bool {
	return f.slotPage(sid) >= f.array.ProgrammedPages(f.slotBlock(sid))
}

func (f *FTL) checkRange(off, n int64) {
	if off < 0 || n < 0 || off+n > f.logicalBytes {
		panic(fmt.Sprintf("ftl: access [%d,%d) outside logical space %d", off, off+n, f.logicalBytes))
	}
}

// ---------------------------------------------------------------------------
// mapping maintenance

// bindSlot points lun at sid (first reference).
func (f *FTL) bindSlot(lun, sid int64) {
	f.unmap(lun)
	f.l2p.set(lun, int32(sid))
	f.refcnt.set(sid, 1)
	f.rev.set(sid, int32(lun))
	blk := f.slotBlock(sid)
	f.validCount[blk]++
	f.noteMapDirty(1)
	if f.fm.enabled {
		f.fmWrite(lun)
	}
}

// shareSlot adds lun as an additional reference to sid (checkpoint remap).
func (f *FTL) shareSlot(lun, sid int64) {
	f.unmap(lun)
	f.l2p.set(lun, int32(sid))
	rc := f.refcnt.ref(sid)
	if *rc == 0 {
		panic("ftl: sharing a dead slot")
	}
	if *rc == ^uint8(0) {
		// cannot happen in the checkpoint protocol (a slot is shared by
		// at most journal+data references), but a silent wrap would
		// corrupt validity accounting — fail loudly instead
		panic("ftl: slot reference count overflow")
	}
	*rc++
	f.revOverflow.add(sid, int32(lun))
	f.rlog.noteAlias(sid, lun)
	f.noteMapDirty(1)
	if f.fm.enabled {
		f.fmWrite(lun)
	}
}

// unmap drops lun's reference, invalidating its slot when the last
// reference disappears.
func (f *FTL) unmap(lun int64) {
	sid := int64(f.l2p.at(lun))
	if sid < 0 {
		return
	}
	f.l2p.set(lun, -1)
	f.dropRef(sid, lun)
	f.noteMapDirty(1)
}

func (f *FTL) dropRef(sid, lun int64) {
	rc := f.refcnt.ref(sid)
	if *rc == 0 {
		panic("ftl: dropping reference on dead slot")
	}
	if *rc == 1 {
		// no overflow lookup needed: refcnt == 1 + len(overflow) for live
		// slots (checked by CheckInvariants), so a last-reference slot has
		// no overflow entry to delete
		*rc = 0
		f.rev.set(sid, -1)
		blk := f.slotBlock(sid)
		f.validCount[blk]--
		return
	}
	*rc--
	ov := f.revOverflow.get(sid)
	if int64(f.rev.at(sid)) == lun {
		// promote the last overflow entry to primary
		f.rev.set(sid, ov[len(ov)-1])
		f.revOverflow.truncate(sid, len(ov)-1)
		return
	}
	for i, l := range ov {
		if int64(l) == lun {
			ov[i] = ov[len(ov)-1]
			f.revOverflow.truncate(sid, len(ov)-1)
			return
		}
	}
}

// lunsOf returns every logical unit referencing sid. The result aliases a
// scratch buffer reused across calls (valid until the next lunsOf call);
// callers needing a stable copy must clone it.
func (f *FTL) lunsOf(sid int64) []int64 {
	if f.refcnt.at(sid) == 0 {
		return nil
	}
	out := append(f.lunsBuf[:0], int64(f.rev.at(sid)))
	for _, l := range f.revOverflow.get(sid) {
		out = append(out, int64(l))
	}
	f.lunsBuf = out
	return out
}

// ---------------------------------------------------------------------------
// map metadata model

func (f *FTL) noteMapDirty(n int) {
	if f.fm.enabled {
		// dftl mode: mapping persistence is per-entry through the CMT
		// (fmWrite), not the batched probabilistic model.
		return
	}
	f.dirtyMapEntries += n
	for f.dirtyMapEntries >= f.cfg.MetaFlushEntries {
		f.dirtyMapEntries -= f.cfg.MetaFlushEntries
		f.stats.MetaFlushes++
		f.programMetaPage()
	}
}

// programMetaPage writes one page of mapping metadata. Metadata pages are
// superseded immediately (the in-DRAM table stays authoritative), so the
// slots are dead on arrival and the block is trivially reclaimable. Pages
// rotate across the stream's frontiers so metadata bursts spread over dies.
func (f *FTL) programMetaPage() {
	idx := f.rr[StreamMeta] % len(f.fronts[StreamMeta])
	f.rr[StreamMeta]++
	fr, block := f.openFrontier(StreamMeta, idx)
	for f.array.SampleProgramFail(block) {
		// Metadata pages are superseded by the in-DRAM table the moment
		// they are written, so nothing is restaged: charge the ruined page,
		// condemn the block, and move the frontier.
		f.array.ProgramFailedAttempt(block, f.array.Geometry().PageSize)
		f.written[block] += int32(f.slotsPerPage)
		f.noteProgramFail(block, StreamMeta, 0)
		fr.block = -1
		fr, block = f.openFrontier(StreamMeta, idx)
	}
	f.written[block] += int32(f.slotsPerPage)
	f.stats.DeadPaddingSlots += 0 // metadata pages are whole-page writes
	f.array.ProgramPage(block, f.array.Geometry().PageSize)
	f.stats.ProgramsByTag[TagMeta]++
	f.advanceFrontier(fr, block)
	f.cfg.Injector.Hit(inject.SiteMetaFlush)
}

// mapLookupCost models the map-cache: the fraction of the table that does
// not fit in DRAM misses at lookup time; misses serialize on the map engine
// and delay the operation by MapMissPenalty.
func (f *FTL) mapLookupCost(lookups int) sim.VTime {
	if f.fm.enabled {
		// dftl mode: lookup cost is charged per miss as a real translation-
		// page read (fmAccessRange), not by the probabilistic model.
		return 0
	}
	tableBytes := f.MappingTableBytes()
	if tableBytes <= f.cfg.MapCacheBytes || f.cfg.MapMissPenalty == 0 {
		return 0
	}
	missProb := 1 - float64(f.cfg.MapCacheBytes)/float64(tableBytes)
	// float64(…) rounds the product: no architecture may fuse the
	// multiply-add, so results are bit-identical on every GOARCH
	f.mapMissAccum += float64(missProb * float64(lookups))
	var delay sim.VTime
	for f.mapMissAccum >= 1 {
		f.mapMissAccum--
		f.stats.MapMisses++
		_, end := f.mapEngine.Reserve(f.eng.Now(), f.cfg.MapMissPenalty)
		if end > f.eng.Now()+delay {
			delay = end - f.eng.Now()
		}
	}
	return delay
}

// ---------------------------------------------------------------------------
// block allocation and frontiers

func (f *FTL) allocBlock(preferDie int) int {
	geo := f.array.Geometry()
	dies := geo.TotalDies()
	for i := 0; i < dies; i++ {
		d := (preferDie + i) % dies
		if n := len(f.freeByDie[d]); n > 0 {
			b := f.freeByDie[d][n-1]
			f.freeByDie[d] = f.freeByDie[d][:n-1]
			f.freeCount--
			f.state[b] = blockOpen
			return b
		}
	}
	panic("ftl: out of free blocks (GC watermarks misconfigured)")
}

func (f *FTL) releaseBlock(b int) {
	f.state[b] = blockFree
	f.validCount[b] = 0
	f.written[b] = 0
	d := f.array.Geometry().DieOfBlock(b)
	f.freeByDie[d] = append(f.freeByDie[d], b)
	f.freeCount++
}

// openFrontier returns frontier idx of stream s with an open block,
// allocating one if necessary.
func (f *FTL) openFrontier(s Stream, idx int) (*frontier, int) {
	fr := &f.fronts[s][idx]
	if fr.block < 0 {
		dies := f.array.Geometry().TotalDies()
		prefer := (int(s)*3 + idx*dies/len(f.fronts[s])) % dies
		fr.block = f.allocBlock(prefer)
	}
	return fr, fr.block
}

// advanceFrontier closes the block if full and triggers GC as needed.
func (f *FTL) advanceFrontier(fr *frontier, block int) {
	if int(f.written[block]) >= f.pagesPerBlk*f.slotsPerPage {
		f.state[block] = blockClosed
		f.closeClock++
		f.closedSeq[block] = f.closeClock
		fr.block = -1
	}
	f.maybeForegroundGC()
}

// appendSlot places one mapping unit of payload into stream s and returns
// the slot id. The payload is staged in the controller buffer; the page
// programs when full (or at Sync), logged for the stream's next Sync.
func (f *FTL) appendSlot(s Stream, lun int64, tag Tag) int64 {
	// Page-granular striping: finish the partially filled page if one
	// exists; otherwise start a fresh page on the next frontier in
	// round-robin order so consecutive pages land on different dies.
	// At most one page per stream is ever partially filled, so the
	// partial index replaces a scan over the stream's frontiers.
	idx := f.partial[s]
	if idx < 0 {
		idx = f.rr[s] % len(f.fronts[s])
		f.rr[s]++
	}
	fr, block := f.openFrontier(s, idx)
	page := f.array.ProgrammedPages(block)
	slot := len(fr.fillLSNs)
	sid := f.slotID(block, page, slot)
	fr.fillLSNs = append(fr.fillLSNs, lun)
	fr.fillTag = tag
	f.written[block]++
	f.rlog.noteWrite(sid, lun)

	if len(fr.fillLSNs) == f.slotsPerPage {
		fr.relocBase = -1
		f.programPage(s, idx, tag, true)
		if fr.relocBase >= 0 {
			// a program failure relocated the buffer mid-call: the slot just
			// appended lives on the replacement block now
			sid = fr.relocBase + int64(slot)
		}
	} else {
		f.partial[s] = idx
	}
	return sid
}

// programOpenPage programs the (possibly partial) open page of frontier
// idx, attributing it to the tag of the buffered slots (a flush should not
// re-tag pages another path staged).
func (f *FTL) programOpenPage(s Stream, idx int, tag Tag) {
	f.programPage(s, idx, tag, false)
}

// programPage is programOpenPage with the append-in-flight marker: when
// inflight is set, the last buffered slot belongs to an appendSlot call
// still on the stack, which re-derives its slot id (frontier.relocBase) if
// a program failure relocates the buffer.
func (f *FTL) programPage(s Stream, idx int, tag Tag, inflight bool) {
	fr := &f.fronts[s][idx]
	if fr.block < 0 || len(fr.fillLSNs) == 0 {
		return
	}
	tag = fr.fillTag
	for f.array.SampleProgramFail(fr.block) {
		f.handleProgramFail(s, idx, inflight)
	}
	block := fr.block
	fill := len(fr.fillLSNs)
	dead := f.slotsPerPage - fill
	if dead > 0 {
		// unwritten slots of a partially programmed page are wasted
		f.written[block] += int32(dead)
		f.stats.DeadPaddingSlots += uint64(dead)
	}
	_, done := f.array.ProgramPage(block, fill*f.unit)
	f.programs[s].note(progMark{at: done, seq: f.eng.ReserveSeq()})
	f.eng.Extend(done)
	f.stats.ProgramsByTag[tag]++
	fr.fillLSNs = fr.fillLSNs[:0]
	if f.partial[s] == idx {
		f.partial[s] = -1
	}
	f.advanceFrontier(fr, block)
}

// A progMark is a page program's completion: its instant and the sequence
// number its completion event would have drawn. Programs get no event; the
// mark is all Sync needs to wait for one. The zero mark stands for no
// program: it precedes every dispatch position, so it is never in flight.
type progMark struct {
	at  sim.VTime
	seq uint64
}

// A progLog keeps the two (at, seq)-latest programs of a stream since its
// last Sync. That is all Sync needs: the latest decides when the barrier
// completes, and whether the second latest is still in flight decides
// whether it joins one program or more.
type progLog struct{ latest, second progMark }

func (l *progLog) note(m progMark) {
	// m's seq is newer than every logged one, so it wins ties on at.
	switch {
	case m.at >= l.latest.at:
		l.second, l.latest = l.latest, m
	case m.at >= l.second.at:
		l.second = m
	}
}

// Sync is SyncInto with a future of its own.
func (f *FTL) Sync(s Stream, tag Tag) *sim.Future {
	var fan sim.FanIn
	fan.Init(f.eng)
	f.SyncInto(s, tag, &fan)
	return fan.Detach()
}

// SyncInto forces every partially filled open page of stream s to program
// and joins into fan every program issued on the stream since its last
// Sync — full pages included — that is still in flight: the durability
// barrier behind the host FLUSH command. A nil fan waits for nothing.
func (f *FTL) SyncInto(s Stream, tag Tag, fan *sim.FanIn) {
	for idx := range f.fronts[s] {
		if len(f.fronts[s][idx].fillLSNs) > 0 {
			f.programOpenPage(s, idx, tag)
		}
	}
	l := &f.programs[s]
	if fan != nil && !f.eng.Passed(l.latest.at, l.latest.seq) {
		fan.Add(l.latest.at, l.latest.seq)
		if !f.eng.Passed(l.second.at, l.second.seq) {
			fan.Add(l.second.at, l.second.seq)
		}
	}
	*l = progLog{}
	f.DrainFaults()
}

// ---------------------------------------------------------------------------
// host operations

// Write is WriteInto with a future of its own.
func (f *FTL) Write(off, n int64, tag Tag, s Stream) *sim.Future {
	var fan sim.FanIn
	fan.Init(f.eng)
	f.WriteInto(off, n, tag, s, &fan)
	return fan.Detach()
}

// WriteInto stores n bytes at logical offset off via stream s. Writes that
// partially cover a previously mapped unit incur a read-modify-write. The
// write is staged once fan completes (RMW reads done, slots buffered);
// durability requires a subsequent Sync, as with a real device's volatile
// write cache backed by power-loss capacitors.
func (f *FTL) WriteInto(off, n int64, tag Tag, s Stream, fan *sim.FanIn) {
	f.checkRange(off, n)
	if n == 0 {
		return
	}
	first := off / int64(f.unit)
	last := (off + n - 1) / int64(f.unit)
	lookups := int(last - first + 1)
	fan.Delay(f.mapLookupCost(lookups))

	f.fmEnterCmd()
	if f.fm.enabled {
		// The old mappings must be resolved before they are invalidated:
		// misses fetch translation pages the write then waits on.
		f.fmAccessRange(first, last, fan)
	}
	for lun := first; lun <= last; lun++ {
		unitStart := lun * int64(f.unit)
		unitEnd := unitStart + int64(f.unit)
		covStart, covEnd := off, off+n
		full := covStart <= unitStart && covEnd >= unitEnd
		if old := int64(f.l2p.at(lun)); !full && old >= 0 && !f.isBuffered(old) {
			// partial overwrite of live data: read-modify-write
			f.stats.HostRMWReads++
			f.stats.ReadsByTag[tag]++
			f.readFlash(f.slotBlock(old), f.slotPage(old), f.unit, fan)
		}
		sid := f.appendSlot(s, lun, tag)
		f.bindSlot(lun, sid)
	}
	f.fmExitCmd()
	f.DrainFaults()
}

// Read is ReadInto with a future of its own.
func (f *FTL) Read(off, n int64) *sim.Future {
	var fan sim.FanIn
	fan.Init(f.eng)
	f.ReadInto(off, n, &fan)
	return fan.Detach()
}

// ReadInto fetches n bytes at logical offset off; the data is in the
// controller once fan completes. Reads of unmapped space need no flash
// (zero-fill). Slot reads sharing a physical page are coalesced into one
// flash read.
func (f *FTL) ReadInto(off, n int64, fan *sim.FanIn) {
	f.checkRange(off, n)
	if n == 0 {
		return
	}
	first := off / int64(f.unit)
	last := (off + n - 1) / int64(f.unit)
	lookups := int(last - first + 1)
	fan.Delay(f.mapLookupCost(lookups))

	// Group mapped units by physical page via the epoch-stamped scratch
	// table: a page id stamped with the current epoch has been seen by this
	// call, so no per-call map is needed. Each lun touches at most one page,
	// which bounds the scratch slice by the unit span.
	if cap(f.pageOrder) < lookups {
		f.pageOrder = make([]int64, 0, lookups)
	}
	f.fmEnterCmd()
	if f.fm.enabled {
		// Resolve translations first: a miss-triggered writeback can run GC,
		// which moves slots — physical pages are captured only afterwards.
		f.fmAccessRange(first, last, fan)
	}
	f.epoch++
	order := f.pageOrder[:0]
	for lun := first; lun <= last; lun++ {
		sid := int64(f.l2p.at(lun))
		if sid < 0 || f.isBuffered(sid) {
			continue // unmapped (zero-fill) or still in the page buffer
		}
		pid := sid / int64(f.slotsPerPage)
		if f.pageEpoch[pid] != f.epoch {
			f.pageEpoch[pid] = f.epoch
			f.pageCount[pid] = 0
			order = append(order, pid)
		}
		f.pageCount[pid]++
	}
	for _, pid := range order {
		f.stats.ReadsByTag[TagHostData]++
		block := int(pid / int64(f.pagesPerBlk))
		page := int(pid % int64(f.pagesPerBlk))
		f.readFlash(block, page, int(f.pageCount[pid])*f.unit, fan)
	}
	f.pageOrder = order[:0]
	f.fmExitCmd()
	f.DrainFaults()
}

// Trim unmaps [off, off+n), releasing references (journal deletion after a
// checkpoint). Alignment is required: the storage engine trims whole areas.
func (f *FTL) Trim(off, n int64) {
	f.checkRange(off, n)
	if off%int64(f.unit) != 0 {
		panic("ftl: unaligned trim")
	}
	first := off / int64(f.unit)
	last := (off + n - 1) / int64(f.unit)
	for lun := first; lun <= last; lun++ {
		if f.l2p.at(lun) >= 0 {
			f.trimUnmap(lun)
			f.stats.TrimmedUnits++
		}
	}
	// A trim persists as one extent record, not one map entry per unit.
	f.rlog.noteTrim(first, last, f.unmapped)
	f.noteMapDirty(1)
	f.maybeForegroundGC()
	f.DrainFaults()
}

// unmapped reports whether every unit in [lo, hi] is unmapped (true for
// an empty range).
func (f *FTL) unmapped(lo, hi int64) bool {
	for lun := lo; lun <= hi; lun++ {
		if f.l2p.at(lun) >= 0 {
			return false
		}
	}
	return true
}

// trimUnmap is unmap without per-unit metadata accounting (Trim records a
// single extent instead).
func (f *FTL) trimUnmap(lun int64) {
	sid := int64(f.l2p.at(lun))
	if sid < 0 {
		return
	}
	f.l2p.set(lun, -1)
	f.dropRef(sid, lun)
	if f.fm.enabled {
		// Each cleared entry must persist individually through the CMT (the
		// extent record covers host-visible recovery, not the on-flash table).
		f.fmWrite(lun)
	}
}

// RemapResult reports what a Remap did.
type RemapResult struct {
	Remapped int // units checkpointed by pure mapping update
	RMWs     int // units that needed read-merge-write
	Skipped  int // units whose source was unmapped or is the unit itself
}

// Remap makes [dst, dst+n) reference the same physical slots as
// [src, src+n): the FTL's copy-on-write checkpoint primitive (Algorithm 1).
// dst must be unit-aligned (it addresses records in the data area). When the
// source range for a destination unit is not unit-aligned — unaligned
// journal logs under ISC-C — the unit is materialized by read-merge-write
// instead, which is exactly the inefficiency sector-aligned journaling
// removes. The returned future completes when any RMW flash work finishes.
func (f *FTL) Remap(src, dst, n int64) (RemapResult, *sim.Future) {
	return f.RemapCached(src, dst, n, false)
}

// RemapCached is Remap with an optional fast path for the read-merge-write
// case: when srcInBuffer is true the source bytes are resident in
// controller DRAM (the paper buffers small merged data in in-storage
// memory), so merging needs no source flash reads.
func (f *FTL) RemapCached(src, dst, n int64, srcInBuffer bool) (RemapResult, *sim.Future) {
	f.checkRange(src, n)
	f.checkRange(dst, n)
	if dst%int64(f.unit) != 0 {
		panic("ftl: Remap destination must be unit-aligned")
	}
	var res RemapResult
	var fan sim.FanIn
	fan.Init(f.eng)
	fan.Delay(f.mapLookupCost(int(2 * (n/int64(f.unit) + 1))))
	f.fmEnterCmd()
	if f.fm.enabled && n > 0 {
		// Source and destination entries both resolve up front — the remap
		// reads the source mapping and invalidates the old destination one.
		f.fmAccessRange(src/int64(f.unit), (src+n-1)/int64(f.unit), &fan)
		f.fmAccessRange(dst/int64(f.unit), (dst+n-1)/int64(f.unit), &fan)
	}

	for rel := int64(0); rel < n; rel += int64(f.unit) {
		dstLun := (dst + rel) / int64(f.unit)
		srcOff := src + rel
		span := n - rel
		if span > int64(f.unit) {
			span = int64(f.unit)
		}
		aligned := srcOff%int64(f.unit) == 0 && span == int64(f.unit)
		if aligned {
			srcLun := srcOff / int64(f.unit)
			sid := int64(f.l2p.at(srcLun))
			if sid < 0 || srcLun == dstLun {
				// Nothing to share, or the unit already holds its source:
				// sharing a unit's only slot with itself would unmap it
				// first and kill the slot.
				res.Skipped++
				continue
			}
			f.shareSlot(dstLun, sid)
			f.stats.Remaps++
			res.Remapped++
			continue
		}
		// Unaligned source (or short tail): read the covering source
		// slots and the old destination slot, merge, and program.
		res.RMWs++
		f.stats.RemapRMWs++
		sFirst := srcOff / int64(f.unit)
		sLast := (srcOff + span - 1) / int64(f.unit)
		for l := sFirst; l <= sLast && !srcInBuffer; l++ {
			if sid := int64(f.l2p.at(l)); sid >= 0 && !f.isBuffered(sid) {
				f.stats.ReadsByTag[TagCheckpoint]++
				f.readFlash(f.slotBlock(sid), f.slotPage(sid), f.unit, &fan)
			}
		}
		if span < int64(f.unit) {
			if old := int64(f.l2p.at(dstLun)); old >= 0 && !f.isBuffered(old) {
				f.stats.ReadsByTag[TagCheckpoint]++
				f.readFlash(f.slotBlock(old), f.slotPage(old), f.unit, &fan)
			}
		}
		sid := f.appendSlot(StreamData, dstLun, TagCheckpoint)
		f.bindSlot(dstLun, sid)
	}
	// RMW slots batch into pages across Remap calls; the caller syncs the
	// data stream once per checkpoint command for durability.
	f.fmExitCmd()
	return res, fan.Detach()
}

// Copy physically copies [src, src+n) to [dst, dst+n) inside the device
// (the ISC-A / ISC-B CoW command service): reads the source slots, then
// programs the destination through the data stream. The future completes
// when the destination is durable.
func (f *FTL) Copy(src, dst, n int64, tag Tag) *sim.Future {
	return f.CopyCached(src, dst, n, tag, false)
}

// CopyCached is Copy with an optional fast path: when srcInBuffer is true
// the source bytes are already resident in controller DRAM (data cache or
// write buffer), so the flash read pass is skipped — the ISCE reads through
// the same DRAM cache the host path uses.
func (f *FTL) CopyCached(src, dst, n int64, tag Tag, srcInBuffer bool) *sim.Future {
	f.checkRange(src, n)
	f.checkRange(dst, n)
	if n == 0 {
		return sim.CompletedFuture(f.eng)
	}
	var fan sim.FanIn
	fan.Init(f.eng)
	fan.Delay(f.mapLookupCost(int(2 * (n/int64(f.unit) + 1))))

	// consecutive reads, deduplicated per physical page through the
	// epoch-stamped scratch table (as in ReadInto; the nested Write below
	// does not touch the epoch, so the stamp stays valid across this
	// call) ...
	sFirst := src / int64(f.unit)
	sLast := (src + n - 1) / int64(f.unit)
	f.fmEnterCmd()
	if f.fm.enabled && !srcInBuffer {
		// Flash-sourced copies resolve the source mapping first (a buffered
		// source reads through the DRAM cache and needs no translation);
		// the destination resolves inside the nested Write.
		f.fmAccessRange(sFirst, sLast, &fan)
	}
	f.epoch++
	for l := sFirst; l <= sLast && !srcInBuffer; l++ {
		if sid := int64(f.l2p.at(l)); sid >= 0 && !f.isBuffered(sid) {
			pid := sid / int64(f.slotsPerPage)
			if f.pageEpoch[pid] != f.epoch {
				f.pageEpoch[pid] = f.epoch
				f.stats.ReadsByTag[tag]++
				block := int(pid / int64(f.pagesPerBlk))
				page := int(pid % int64(f.pagesPerBlk))
				f.readFlash(block, page, f.unit*f.slotsPerPage, &fan)
			}
		}
	}
	// ... then consecutive writes (with RMW for a partial destination
	// tail). As with Remap, the caller syncs the data stream once per
	// command so copies batch into full pages.
	fan.Await(f.Write(dst, n, tag, StreamData))
	f.fmExitCmd()
	return fan.Detach()
}

// ---------------------------------------------------------------------------
// garbage collection

func (f *FTL) maybeForegroundGC() {
	if f.gcDepth > 0 {
		return
	}
	if f.freeCount >= f.cfg.GCLowWater {
		return
	}
	f.gcDepth++
	for f.freeCount < f.cfg.GCHighWater {
		if !f.collectVictim() {
			break
		}
	}
	f.gcDepth--
	f.fmAfterGC()
}

// BackgroundGC reclaims up to maxVictims blocks if reclaimable space exists;
// the SSD's deallocator calls this from idle windows. Returns the number of
// blocks collected.
func (f *FTL) BackgroundGC(maxVictims int) int {
	// only collect cheap victims in the background: blocks that are
	// mostly invalid (journal blocks after a trim)
	return f.backgroundCollect(maxVictims, f.cheapValid())
}

// BackgroundGCForce reclaims up to maxVictims blocks taking the best victim
// available regardless of its valid count — the deallocator's pressure
// path, paced in small batches so host I/O interleaves between victims.
func (f *FTL) BackgroundGCForce(maxVictims int) int {
	return f.backgroundCollect(maxVictims, 1<<30)
}

func (f *FTL) backgroundCollect(maxVictims, maxValid int) int {
	f.gcDepth++
	defer func() { f.gcDepth--; f.fmAfterGC() }()
	collected := 0
	for collected < maxVictims {
		v := f.pick(maxValid)
		if v < 0 {
			break
		}
		f.collectBlock(v)
		collected++
	}
	return collected
}

// LowSpace reports whether free blocks dropped below the comfort threshold
// where background reclamation should run even without an idle window. The
// cushion is deliberately modest: demanding a large free pool would force
// collection of mostly-valid victims and thrash.
func (f *FTL) LowSpace() bool {
	cushion := f.totalBlocks / 16
	if min := 2 * f.cfg.GCHighWater; cushion < min {
		cushion = min
	}
	return f.freeCount < cushion
}

// collectVictim selects and collects the best victim; reports success.
func (f *FTL) collectVictim() bool {
	v := f.pick(1 << 30)
	if v < 0 {
		return false
	}
	f.collectBlock(v)
	return true
}

// collectBlock migrates the valid slots of block b and erases it.
func (f *FTL) collectBlock(b int) {
	if f.validCount[b] > 0 {
		f.stats.GCInvocations++
	} else {
		f.stats.DeadReclaims++
	}
	if f.cfg.Tracer != nil {
		f.cfg.Tracer.Emit(f.eng.Now(), trace.KindGCVictim, int64(b),
			fmt.Sprintf("valid=%d", f.validCount[b]))
	}
	// Victim selection skips the block while migration empties it.
	prevVictim := f.gcVictim
	f.gcVictim = b
	f.migrateLive(b)
	if f.array.SampleEraseFail(b) {
		// The erase reported status FAIL: the block took the P/E stress but
		// never reached the erased state — retire it in place of freeing it.
		f.array.EraseFailedAttempt(b)
		if f.cfg.Tracer != nil {
			f.cfg.Tracer.Emit(f.eng.Now(), trace.KindEraseFail, int64(b), "")
		}
		f.retireBlock(b)
		f.cfg.Injector.Hit(inject.SiteEraseFail)
	} else {
		f.array.EraseBlock(b)
		f.releaseBlock(b)
	}
	f.gcVictim = prevVictim
	f.cfg.Injector.Hit(inject.SiteGCMigrate)
}

// migrateLive moves every live slot of block b onto the GC stream — a read
// pass (one flash read per page holding valid slots), a migrate pass that
// rebinds every logical reference (shared slots keep their sharing), and a
// GC-stream flush — then clears the block's recovery-log records. Callers
// hold gcDepth so the migration's own appends cannot recurse into GC.
func (f *FTL) migrateLive(b int) {
	slotsPerBlock := f.pagesPerBlk * f.slotsPerPage
	base := f.slotID(b, 0, 0)

	// translation pass: relocate live translation pages first (dftl mode) —
	// a victim may hold them alongside or instead of live data slots
	f.fmMigrateTrans(b)

	// read pass: one flash read per page holding any valid slot
	lastPage := -1
	for s := 0; s < slotsPerBlock; s++ {
		sid := base + int64(s)
		if f.refcnt.at(sid) == 0 {
			continue
		}
		if p := f.slotPage(sid); p != lastPage {
			lastPage = p
			f.stats.ReadsByTag[TagGC]++
			f.readFlash(b, p, f.array.Geometry().PageSize, nil)
		}
	}
	// migrate pass: rewrite valid slots through the GC stream, moving
	// every logical reference (shared slots keep their sharing)
	for s := 0; s < slotsPerBlock; s++ {
		sid := base + int64(s)
		if f.refcnt.at(sid) == 0 {
			continue
		}
		luns := f.lunsOf(sid)
		// detach the old slot entirely before rebinding
		for _, lun := range luns {
			f.l2p.set(lun, -1)
			f.noteMapDirty(1)
		}
		if f.refcnt.at(sid) > 1 {
			f.revOverflow.drop(sid)
		}
		f.refcnt.set(sid, 0)
		f.rev.set(sid, -1)
		f.validCount[b]--

		newSid := f.appendSlot(StreamGC, luns[0], TagGC)
		f.stats.GCMigratedSlot++
		f.bindSlot(luns[0], newSid)
		for _, lun := range luns[1:] {
			f.shareSlot(lun, newSid)
		}
		f.rlog.preserveCopy(sid, newSid)
	}
	// flush the GC stream's partial pages so the block is safe to erase
	f.SyncInto(StreamGC, TagGC, nil)
	f.validCount[b] = 0
	f.rlog.noteErase(base, int64(slotsPerBlock))
}
