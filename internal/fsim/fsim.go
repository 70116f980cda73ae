// Package fsim is a second consumer of the Check-In device: a minimal
// journaling file layer in the style of a data-journaling filesystem
// (ext4 data=journal). It demonstrates the paper's generality claim — "our
// approach can be applied to other storage systems that use journaling and
// checkpointing (e.g., a file system)" — by running the same conventional
// vs in-storage checkpointing comparison over file-block traffic instead
// of key-value records.
//
// The layout is deliberately simple: a fixed population of files, each a
// run of fixed-size blocks at a home location. Block writes are first
// appended to a journal area (write-ahead); a periodic checkpoint moves
// the newest version of every dirty block to its home location — either by
// host read+write (conventional) or by a checkpoint-request command that
// the device serves with FTL remapping (Check-In). File blocks are
// naturally aligned to the mapping unit, which is exactly the regime where
// remapping shines (the paper: "relatively large data also can be
// processed effectively").
package fsim

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
)

// Mode selects the checkpoint mechanism.
type Mode uint8

// Checkpointing modes.
const (
	// ModeConventional checkpoints through the host (read journal, write
	// home locations).
	ModeConventional Mode = iota
	// ModeInStorage checkpoints by device-side remapping.
	ModeInStorage
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeInStorage {
		return "in-storage"
	}
	return "conventional"
}

// Config parameterizes the file layer.
type Config struct {
	Files          int
	BlocksPerFile  int
	BlockSize      int // must be a multiple of the device mapping unit
	JournalBytes   int64
	CkptEveryBytes int64 // checkpoint when this much journal accumulates
}

// DefaultConfig returns a small-file population with 4 KB blocks.
func DefaultConfig() Config {
	return Config{
		Files:          64,
		BlocksPerFile:  64,
		BlockSize:      4096,
		JournalBytes:   8 << 20,
		CkptEveryBytes: 4 << 20,
	}
}

// Stats counts file-layer activity.
type Stats struct {
	BlockWrites  uint64
	Checkpoints  uint64
	CkptBlocks   uint64
	JournalBytes uint64
}

// FS is the journaling file layer bound to a simulated device.
type FS struct {
	eng  *sim.Engine
	dev  *ssd.Device
	cfg  Config
	mode Mode

	journalStart int64
	homeStart    int64
	head         int64 // bytes used in the journal area

	// dirty maps block id → journal offset of its newest version.
	dirty map[int64]int64
	// version truth for validation: in-memory vs home-area versions.
	version []int64
	homeVer []int64

	ckptTime sim.VTime // cumulative time spent checkpointing
	stats    Stats
}

// New lays the file system out on dev.
func New(eng *sim.Engine, dev *ssd.Device, cfg Config, mode Mode) (*FS, error) {
	if cfg.Files < 1 || cfg.BlocksPerFile < 1 {
		return nil, fmt.Errorf("fsim: need at least one file and block")
	}
	unit := dev.FTL().UnitSize()
	if cfg.BlockSize <= 0 || cfg.BlockSize%unit != 0 {
		return nil, fmt.Errorf("fsim: BlockSize %d must be a positive multiple of the mapping unit %d",
			cfg.BlockSize, unit)
	}
	if cfg.JournalBytes < 2*cfg.CkptEveryBytes {
		return nil, fmt.Errorf("fsim: JournalBytes %d must be at least twice CkptEveryBytes %d",
			cfg.JournalBytes, cfg.CkptEveryBytes)
	}
	total := int64(cfg.Files) * int64(cfg.BlocksPerFile)
	need := cfg.JournalBytes + total*int64(cfg.BlockSize)
	if need > dev.LogicalBytes() {
		return nil, fmt.Errorf("fsim: layout needs %d bytes, device exports %d", need, dev.LogicalBytes())
	}
	return &FS{
		eng:          eng,
		dev:          dev,
		cfg:          cfg,
		mode:         mode,
		journalStart: 0,
		homeStart:    cfg.JournalBytes,
		dirty:        make(map[int64]int64),
		version:      make([]int64, total),
		homeVer:      make([]int64, total),
	}, nil
}

// Blocks returns the total block count.
func (fs *FS) Blocks() int64 { return int64(len(fs.version)) }

// Stats returns a snapshot of file-layer counters.
func (fs *FS) Stats() Stats { return fs.stats }

// CheckpointTime returns the cumulative time spent in checkpoints.
func (fs *FS) CheckpointTime() sim.VTime { return fs.ckptTime }

// homeOff returns the home location of a block.
func (fs *FS) homeOff(block int64) int64 {
	return fs.homeStart + block*int64(fs.cfg.BlockSize)
}

// Format writes every block's initial version to its home location.
func (fs *FS) Format(p *sim.Proc) {
	const chunk = 1 << 20
	end := fs.homeOff(fs.Blocks())
	for off := fs.homeStart; off < end; off += chunk {
		n := int64(chunk)
		if off+n > end {
			n = end - off
		}
		fs.dev.Write(off, n, ssd.AreaData)
	}
	p.Wait(fs.dev.Flush(ssd.AreaData))
	for i := range fs.version {
		fs.version[i] = 1
		fs.homeVer[i] = 1
	}
}

// WriteBlock journals a full-block write (data journaling) and returns when
// the journal commit is durable. Checkpointing triggers inline when enough
// journal has accumulated, matching a filesystem's jbd-style behaviour.
func (fs *FS) WriteBlock(p *sim.Proc, block int64) {
	if block < 0 || block >= fs.Blocks() {
		panic(fmt.Sprintf("fsim: block %d out of range", block))
	}
	bs := int64(fs.cfg.BlockSize)
	if fs.head+bs > fs.cfg.JournalBytes {
		fs.Checkpoint(p) // journal full: force a checkpoint (resets head)
	}
	off := fs.journalStart + fs.head
	fs.head += bs
	fs.version[block]++
	fs.dirty[block] = off
	fs.stats.BlockWrites++
	fs.stats.JournalBytes += uint64(bs)

	p.Sleep(core.HostIOOverhead)
	fs.dev.Write(off, bs, ssd.AreaJournal)
	p.Wait(fs.dev.Flush(ssd.AreaJournal))

	if fs.head >= fs.cfg.CkptEveryBytes {
		fs.Checkpoint(p)
	}
}

// ReadBlock reads a block (newest version: journal if dirty, else home).
func (fs *FS) ReadBlock(p *sim.Proc, block int64) {
	p.Sleep(core.HostIOOverhead)
	if off, ok := fs.dirty[block]; ok {
		p.Wait(fs.dev.Read(off, int64(fs.cfg.BlockSize)))
		return
	}
	p.Wait(fs.dev.Read(fs.homeOff(block), int64(fs.cfg.BlockSize)))
}

// Checkpoint moves every dirty block's newest version to its home location
// using the configured mode, then discards the journal.
func (fs *FS) Checkpoint(p *sim.Proc) {
	if len(fs.dirty) == 0 {
		fs.head = 0
		return
	}
	start := p.Now()
	fs.stats.Checkpoints++
	bs := int64(fs.cfg.BlockSize)

	switch fs.mode {
	case ModeConventional:
		for block, joff := range fs.dirty {
			p.Sleep(core.HostIOOverhead)
			fs.dev.Read(joff, bs)
			p.Sleep(core.HostIOOverhead)
			fs.dev.Write(fs.homeOff(block), bs, ssd.AreaCheckpoint)
			fs.stats.CkptBlocks++
		}
		p.Wait(fs.dev.Flush(ssd.AreaCheckpoint))
	case ModeInStorage:
		const batch = 128
		entries := make([]ssd.RemapEntry, 0, batch)
		flush := func() {
			if len(entries) == 0 {
				return
			}
			p.Sleep(core.HostIOOverhead)
			_, fut := fs.dev.CheckpointRequest(entries)
			p.Wait(fut)
			entries = entries[:0]
		}
		for block, joff := range fs.dirty {
			entries = append(entries, ssd.RemapEntry{
				Src: joff, Dst: fs.homeOff(block), Len: bs,
			})
			fs.stats.CkptBlocks++
			if len(entries) == batch {
				flush()
			}
		}
		flush()
		p.Wait(fs.dev.Flush(ssd.AreaCheckpoint))
	}

	for block := range fs.dirty {
		fs.homeVer[block] = fs.version[block]
	}
	fs.dirty = make(map[int64]int64)
	p.Wait(fs.dev.Deallocate(fs.journalStart, fs.cfg.JournalBytes))
	fs.head = 0
	fs.ckptTime += p.Now() - start
}

// Validate checks that home versions match for every clean block and that
// dirty blocks are newer in memory — the file layer's consistency
// invariant.
func (fs *FS) Validate() error {
	for b := int64(0); b < fs.Blocks(); b++ {
		if _, dirty := fs.dirty[b]; dirty {
			if fs.version[b] <= fs.homeVer[b] {
				return fmt.Errorf("fsim: dirty block %d not newer than home (v%d vs v%d)",
					b, fs.version[b], fs.homeVer[b])
			}
			continue
		}
		if fs.version[b] != fs.homeVer[b] {
			return fmt.Errorf("fsim: clean block %d version skew (v%d vs home v%d)",
				b, fs.version[b], fs.homeVer[b])
		}
	}
	return nil
}
