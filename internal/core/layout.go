// Package core implements the paper's contribution: the Check-In storage
// engine. It contains the key-value mapping layer (key → data-area LBA),
// the journaling layer with both conventional and sector-aligned log
// formats (Algorithm 2), the journal mapping table (JMT), the five
// checkpointing strategies the evaluation compares (Baseline, ISC-A, ISC-B,
// ISC-C, Check-In), the checkpoint scheduler, the query execution paths,
// and crash recovery.
package core

import (
	"fmt"
	"sync/atomic"

	"github.com/checkin-kv/checkin/internal/workload"
)

// Strategy selects the checkpointing mechanism, following the paper's
// configuration breakdown (Section IV-A).
type Strategy uint8

// The five evaluated configurations.
const (
	// StrategyBaseline checkpoints in the storage engine: journal logs are
	// read to host memory and written back to the data area.
	StrategyBaseline Strategy = iota
	// StrategyISCA offloads checkpointing with one CoW command per log.
	StrategyISCA
	// StrategyISCB offloads with batched multi-CoW commands.
	StrategyISCB
	// StrategyISCC offloads with FTL remapping (sub-page mapping), but
	// journal logs keep the conventional (unaligned) format.
	StrategyISCC
	// StrategyCheckIn is the full proposal: remapping plus sector-aligned
	// journaling.
	StrategyCheckIn
	numStrategies
)

// Strategies lists all configurations in evaluation order.
var Strategies = []Strategy{StrategyBaseline, StrategyISCA, StrategyISCB, StrategyISCC, StrategyCheckIn}

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case StrategyBaseline:
		return "Baseline"
	case StrategyISCA:
		return "ISC-A"
	case StrategyISCB:
		return "ISC-B"
	case StrategyISCC:
		return "ISC-C"
	case StrategyCheckIn:
		return "Check-In"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// Offloaded reports whether checkpointing executes in the device.
func (s Strategy) Offloaded() bool { return s != StrategyBaseline }

// UsesRemap reports whether checkpointing updates mapping state instead of
// copying data.
func (s Strategy) UsesRemap() bool { return s == StrategyISCC || s == StrategyCheckIn }

// SectorAligned reports whether the journal uses Algorithm 2's aligned
// format.
func (s Strategy) SectorAligned() bool { return s == StrategyCheckIn && !conventionalLogs.Load() }

// conventionalLogs puts every strategy on the conventional log format.
var conventionalLogs atomic.Bool

// ForceConventionalLogs makes stacks built from now on log in the
// conventional format under every strategy, until the returned func
// restores the default. No Config field or flag reaches it: tests use it
// to hold the log format equal across strategies.
func ForceConventionalLogs() (restore func()) {
	conventionalLogs.Store(true)
	return func() { conventionalLogs.Store(false) }
}

// LogHeader returns the inline header bytes of each log record: the
// aligned format keeps log descriptors host-side, in the JMT, instead.
func (s Strategy) LogHeader() int64 {
	if s.SectorAligned() {
		return 0
	}
	return InlineHeaderBytes
}

// DefaultMappingUnit returns the FTL mapping unit the configuration runs
// with when not overridden: conventional SSDs map 4 KB pages; the remapping
// designs use sub-page (host-sector) mapping.
func (s Strategy) DefaultMappingUnit() int {
	if s.UsesRemap() {
		return 512
	}
	return 4096
}

// ParseStrategy resolves a strategy from its display name.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want one of Baseline, ISC-A, ISC-B, ISC-C, Check-In)", name)
}

// hostSector is the block-interface sector size records align to.
const hostSector = 512

// Layout carves the device's logical space into the double-buffered journal
// area, a small checkpoint-metadata region, and the data area holding one
// slot per record. It is immutable after NewLayout, so forked engines share
// their template's.
type Layout struct {
	JournalHalfBytes int64
	MetaStart        int64
	MetaBytes        int64
	DataStart        int64
	DataEnd          int64

	SlotAlign int64 // record slots align to max(hostSector, mapping unit)

	recOff  []int64
	recSize []int32
}

// NewLayout places keys records (sizes from sizer) on a device of devBytes
// logical capacity. slotAlign is the data-slot alignment.
func NewLayout(devBytes int64, keys int64, sizer workload.Sizer, journalHalfBytes int64, slotAlign int64) (*Layout, error) {
	if keys < 1 {
		return nil, fmt.Errorf("core: need at least one key")
	}
	if journalHalfBytes <= 0 || journalHalfBytes%hostSector != 0 {
		return nil, fmt.Errorf("core: journal half %d must be a positive multiple of %d", journalHalfBytes, hostSector)
	}
	if slotAlign < hostSector {
		slotAlign = hostSector
	}
	l := &Layout{
		JournalHalfBytes: journalHalfBytes,
		SlotAlign:        slotAlign,
		recOff:           make([]int64, keys),
		recSize:          make([]int32, keys),
	}
	l.MetaStart = 2 * journalHalfBytes
	l.MetaBytes = roundUp(keys*32, 4096)
	l.DataStart = l.MetaStart + l.MetaBytes
	off := l.DataStart
	for k := int64(0); k < keys; k++ {
		size := sizer.SizeOf(k)
		if size <= 0 {
			return nil, fmt.Errorf("core: sizer returned %d for key %d", size, k)
		}
		if off > devBytes { // bail early: no point placing the rest
			return nil, fmt.Errorf("core: layout needs more than %d bytes by key %d (reduce keys or journal)", devBytes, k)
		}
		l.recOff[k] = off
		l.recSize[k] = int32(size)
		off += roundUp(int64(size), slotAlign)
	}
	l.DataEnd = off
	if off > devBytes {
		return nil, fmt.Errorf("core: layout needs %d bytes but device exports %d (reduce keys or journal)", off, devBytes)
	}
	return l, nil
}

// JournalStart returns the absolute offset of journal half h (0 or 1).
func (l *Layout) JournalStart(h int) int64 {
	return int64(h) * l.JournalHalfBytes
}

// Record returns the data-area offset and size of key's record.
func (l *Layout) Record(key int64) (off int64, size int) {
	return l.recOff[key], int(l.recSize[key])
}

// SlotBytes returns the aligned slot size of key's record.
func (l *Layout) SlotBytes(key int64) int64 {
	return roundUp(int64(l.recSize[key]), l.SlotAlign)
}

// Keys returns the number of records.
func (l *Layout) Keys() int64 { return int64(len(l.recOff)) }

// DataBytes returns total data-area bytes including slot padding.
func (l *Layout) DataBytes() int64 { return l.DataEnd - l.DataStart }

// PayloadBytes returns the sum of raw record sizes (no slot padding).
func (l *Layout) PayloadBytes() int64 {
	var sum int64
	for _, s := range l.recSize {
		sum += int64(s)
	}
	return sum
}

func roundUp(v, to int64) int64 {
	if to <= 0 {
		return v
	}
	return (v + to - 1) / to * to
}
