// Package nand models a NAND flash array: geometry (channels, packages,
// dies, planes, blocks, pages), operation timing (tR / tPROG / tBERS and
// channel transfer), per-die and per-channel contention, erase-count (P/E
// cycle) tracking, and the physical-ordering rules of flash (erase before
// program, program pages in order, no in-place overwrite).
//
// The array is deliberately policy-free: page validity, mapping, and garbage
// collection live in the FTL (package ftl). The array's job is to make every
// flash operation cost the right amount of virtual time and to count
// operations for the paper's amplification and lifetime analyses.
package nand

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/sim"
)

// Geometry describes the physical organization of the flash array.
type Geometry struct {
	Channels           int // independent buses
	PackagesPerChannel int
	DiesPerPackage     int
	PlanesPerDie       int
	BlocksPerPlane     int
	PagesPerBlock      int
	PageSize           int // bytes per physical page
}

// Validate reports a descriptive error for nonsensical geometries.
func (g Geometry) Validate() error {
	fields := []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels}, {"PackagesPerChannel", g.PackagesPerChannel},
		{"DiesPerPackage", g.DiesPerPackage}, {"PlanesPerDie", g.PlanesPerDie},
		{"BlocksPerPlane", g.BlocksPerPlane}, {"PagesPerBlock", g.PagesPerBlock},
		{"PageSize", g.PageSize},
	}
	for _, f := range fields {
		if f.v <= 0 {
			return fmt.Errorf("nand: geometry field %s = %d, must be positive", f.name, f.v)
		}
	}
	return nil
}

// TotalDies returns the number of independently operating dies.
func (g Geometry) TotalDies() int {
	return g.Channels * g.PackagesPerChannel * g.DiesPerPackage
}

// BlocksPerDie returns blocks across all planes of one die.
func (g Geometry) BlocksPerDie() int { return g.PlanesPerDie * g.BlocksPerPlane }

// TotalBlocks returns the total block count of the array.
func (g Geometry) TotalBlocks() int { return g.TotalDies() * g.BlocksPerDie() }

// TotalPages returns the total physical page count.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// TotalBytes returns raw capacity in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
}

// DieOfBlock maps a global block index to its die.
func (g Geometry) DieOfBlock(block int) int { return block / g.BlocksPerDie() }

// ChannelOfDie maps a die to the channel its package hangs off.
// Dies are numbered so that consecutive dies stripe across channels.
func (g Geometry) ChannelOfDie(die int) int { return die % g.Channels }

// ChannelOfBlock maps a global block index to its channel.
func (g Geometry) ChannelOfBlock(block int) int {
	return g.ChannelOfDie(g.DieOfBlock(block))
}

// PlaneOfBlock maps a global block index to its plane within the die.
func (g Geometry) PlaneOfBlock(block int) int {
	return (block % g.BlocksPerDie()) / g.BlocksPerPlane
}

// Timing holds the latency parameters of the flash parts.
type Timing struct {
	ReadPage    sim.VTime // tR: cell array → page register
	ProgramPage sim.VTime // tPROG: page register → cell array
	EraseBlock  sim.VTime // tBERS
	CmdOverhead sim.VTime // command/address cycles per operation

	// ChannelMBps is the bus transfer rate in MB/s used to move a page
	// between the controller and the die's page register.
	ChannelMBps int

	// Per-operation energy in nanojoules (typical MLC parts: a read costs
	// tens of µJ, a program a few hundred µJ, a block erase ~1.5 mJ).
	// Zero values disable energy reporting.
	ReadEnergyNJ    uint64
	ProgramEnergyNJ uint64
	EraseEnergyNJ   uint64
}

// WithDefaultEnergy fills typical MLC per-operation energies (nJ).
func (t Timing) WithDefaultEnergy() Timing {
	t.ReadEnergyNJ = 25_000
	t.ProgramEnergyNJ = 220_000
	t.EraseEnergyNJ = 1_500_000
	return t
}

// Validate reports a descriptive error for nonsensical timings.
func (t Timing) Validate() error {
	if t.ReadPage == 0 || t.ProgramPage == 0 || t.EraseBlock == 0 {
		return fmt.Errorf("nand: timing has zero core latency: %+v", t)
	}
	if t.ChannelMBps <= 0 {
		return fmt.Errorf("nand: ChannelMBps = %d, must be positive", t.ChannelMBps)
	}
	return nil
}

// TransferTime returns the bus time to move n bytes.
func (t Timing) TransferTime(n int) sim.VTime {
	if n <= 0 {
		return 0
	}
	// bytes / (MB/s) = microseconds per (MB → bytes): ns = n * 1000 / MBps.
	return sim.VTime(uint64(n) * 1000 / uint64(t.ChannelMBps))
}

// blockState tracks per-block physical lifecycle for ordering checks and
// lifetime accounting.
type blockState struct {
	eraseCount uint32
	erased     bool // true after erase, false once any page is programmed? (see nextPage)
	nextPage   int  // next programmable page index (sequential-program rule)
	everErased bool
}

// Stats aggregates operation counts for the whole array.
type Stats struct {
	Reads    uint64
	Programs uint64
	Erases   uint64
	// BytesRead / BytesProgrammed count payload moved over the buses.
	BytesRead       uint64
	BytesProgrammed uint64

	// Reliability-model counters (all zero when the model is disabled).
	// ReadRetries counts voltage-shift retry reads beyond the first read;
	// UncorrectableReads counts reads that needed a soft-decision decode;
	// ProgramFails / EraseFails count operations that reported status FAIL.
	ReadRetries        uint64
	UncorrectableReads uint64
	ProgramFails       uint64
	EraseFails         uint64
}

// Array is the simulated flash device.
type Array struct {
	geo Geometry
	tim Timing
	eng *sim.Engine

	dies     []sim.FIFOResource // die-level busy (array operations)
	channels []sim.FIFOResource // bus-level busy (transfers)
	blocks   []blockState

	stats Stats
	rel   *relModel // nil unless EnableReliability installed nonzero rates
}

// New constructs an Array. Blocks start in the pristine (erased) state so
// the FTL can program them immediately, but their erase count starts at 0.
func New(eng *sim.Engine, geo Geometry, tim Timing) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := tim.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		geo:      geo,
		tim:      tim,
		eng:      eng,
		dies:     make([]sim.FIFOResource, geo.TotalDies()),
		channels: make([]sim.FIFOResource, geo.Channels),
		blocks:   make([]blockState, geo.TotalBlocks()),
	}
	for i := range a.blocks {
		a.blocks[i].erased = true
	}
	return a, nil
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Timing returns the array's timing parameters.
func (a *Array) Timing() Timing { return a.tim }

// Stats returns a snapshot of operation counters.
func (a *Array) Stats() Stats { return a.stats }

// EraseCount returns the erase count of a block.
func (a *Array) EraseCount(block int) uint32 { return a.blocks[block].eraseCount }

// TotalErases returns the sum of erase counts (== Stats().Erases).
func (a *Array) TotalErases() uint64 { return a.stats.Erases }

// MaxEraseCount returns the highest per-block erase count (wear skew).
func (a *Array) MaxEraseCount() uint32 {
	var max uint32
	for i := range a.blocks {
		if a.blocks[i].eraseCount > max {
			max = a.blocks[i].eraseCount
		}
	}
	return max
}

// An operation's timing is closed-form arithmetic over two FIFO busy
// horizons, its die's and its channel's, so each operation books both at
// issue and returns its completion instant. It allocates nothing and
// schedules no event: a caller that waits joins the instant into a
// sim.FanIn.

// ReadPage reads nbytes of a page: the die is busy for tR, then the channel
// carries the data to the controller. It returns when the data is in the
// controller.
func (a *Array) ReadPage(block, page, nbytes int) sim.VTime {
	a.checkAddr(block, page)
	bs := &a.blocks[block]
	if page >= bs.nextPage {
		panic(fmt.Sprintf("nand: read of unprogrammed page %d of block %d (programmed up to %d)",
			page, block, bs.nextPage))
	}
	nbytes = a.clampBytes(nbytes)
	a.stats.Reads++
	a.stats.BytesRead += uint64(nbytes)

	die := a.geo.DieOfBlock(block)
	_, dieDone := a.dies[die].Reserve(a.eng.Now(), a.tim.CmdOverhead+a.tim.ReadPage)
	_, xferDone := a.channels[a.geo.ChannelOfDie(die)].Reserve(dieDone, a.tim.TransferTime(nbytes))
	return xferDone
}

// ProgramPage programs the next page of a block (flash programs pages in
// order). It returns the page index programmed and when the program
// finishes. Programming a full block panics — the FTL must rotate to a
// fresh block.
func (a *Array) ProgramPage(block, nbytes int) (page int, done sim.VTime) {
	a.checkAddr(block, 0)
	bs := &a.blocks[block]
	if bs.nextPage >= a.geo.PagesPerBlock {
		panic(fmt.Sprintf("nand: program past end of block %d", block))
	}
	nbytes = a.clampBytes(nbytes)
	page = bs.nextPage
	bs.nextPage++
	bs.erased = false
	a.stats.Programs++
	a.stats.BytesProgrammed += uint64(nbytes)
	return page, a.programReserve(block, nbytes)
}

// programReserve books a page program's time: the data moves over the
// channel into the die's page register, then the die programs the cell
// array. It returns when the program finishes.
func (a *Array) programReserve(block, nbytes int) sim.VTime {
	die := a.geo.DieOfBlock(block)
	_, xferDone := a.channels[a.geo.ChannelOfDie(die)].Reserve(a.eng.Now(), a.tim.TransferTime(nbytes))
	_, done := a.dies[die].Reserve(xferDone, a.tim.CmdOverhead+a.tim.ProgramPage)
	return done
}

// EraseBlock erases a block, incrementing its P/E count. It returns when
// the erase finishes.
func (a *Array) EraseBlock(block int) sim.VTime {
	a.checkAddr(block, 0)
	bs := &a.blocks[block]
	bs.eraseCount++
	bs.erased = true
	bs.everErased = true
	bs.nextPage = 0
	a.stats.Erases++
	return a.eraseReserve(block)
}

// eraseReserve books a block erase's die time and returns when it ends.
func (a *Array) eraseReserve(block int) sim.VTime {
	_, done := a.dies[a.geo.DieOfBlock(block)].Reserve(a.eng.Now(), a.tim.CmdOverhead+a.tim.EraseBlock)
	return done
}

// clampBytes maps a transfer size outside (0, PageSize] to a whole page.
func (a *Array) clampBytes(nbytes int) int {
	if nbytes <= 0 || nbytes > a.geo.PageSize {
		return a.geo.PageSize
	}
	return nbytes
}

// ProgrammedPages returns how many pages of the block are programmed.
func (a *Array) ProgrammedPages(block int) int { return a.blocks[block].nextPage }

// IsErased reports whether the block is erased and unprogrammed.
func (a *Array) IsErased(block int) bool {
	return a.blocks[block].erased && a.blocks[block].nextPage == 0
}

// DieIdleAt reports whether the die holding block is idle at time t — the
// deallocator uses this to schedule background GC in idle windows.
func (a *Array) DieIdleAt(block int, t sim.VTime) bool {
	return a.dies[a.geo.DieOfBlock(block)].IdleAt(t)
}

// AllDiesIdleAt reports whether the whole array is idle at time t.
func (a *Array) AllDiesIdleAt(t sim.VTime) bool {
	for i := range a.dies {
		if !a.dies[i].IdleAt(t) {
			return false
		}
	}
	return true
}

// DieBusyTotal returns the cumulative busy time of die d (utilization).
func (a *Array) DieBusyTotal(d int) sim.VTime {
	return a.dies[d].BusyTotal()
}

// ReserveDie books dur of busy time on the die holding block — used by
// recovery scans that sweep OOB areas without going through the normal
// page-read path. It returns the reservation's end time.
func (a *Array) ReserveDie(block int, dur sim.VTime) sim.VTime {
	a.checkAddr(block, 0)
	_, end := a.dies[a.geo.DieOfBlock(block)].Reserve(a.eng.Now(), dur)
	return end
}

// MaxBacklog returns the largest per-die backlog (busy-until minus now) at
// time t — a probe for burstiness diagnostics.
func (a *Array) MaxBacklog(t sim.VTime) sim.VTime {
	var max sim.VTime
	for i := range a.dies {
		if bu := a.dies[i].BusyUntil(); bu > t && bu-t > max {
			max = bu - t
		}
	}
	return max
}

// ChannelBusyTotal returns the cumulative busy time of channel c.
func (a *Array) ChannelBusyTotal(c int) sim.VTime {
	return a.channels[c].BusyTotal()
}

func (a *Array) checkAddr(block, page int) {
	if block < 0 || block >= len(a.blocks) {
		panic(fmt.Sprintf("nand: block %d out of range [0,%d)", block, len(a.blocks)))
	}
	if page < 0 || page >= a.geo.PagesPerBlock {
		panic(fmt.Sprintf("nand: page %d out of range [0,%d)", page, a.geo.PagesPerBlock))
	}
}

// EnergyNJ returns the cumulative flash energy consumed so far in
// nanojoules (reads + programs + erases at the configured per-op costs).
func (a *Array) EnergyNJ() uint64 {
	return a.tim.EnergyNJ(a.stats.Reads, a.stats.Programs, a.stats.Erases)
}

// EnergyNJ returns the energy in nanojoules of the given operation counts
// at t's per-operation costs.
func (t Timing) EnergyNJ(reads, programs, erases uint64) uint64 {
	return reads*t.ReadEnergyNJ + programs*t.ProgramEnergyNJ + erases*t.EraseEnergyNJ
}
