package core

import (
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
)

// checkpointData moves a cut snapshot's live logs onto their data-area
// targets with the configured strategy — the paper's configuration
// breakdown. It runs in the checkpoint process, overlapping query traffic.
func (en *Engine) checkpointData(p *sim.Proc, snap ckptSnapshot) {
	switch s := en.cfg.Strategy; {
	case s == StrategyBaseline:
		en.baselineCheckpoint(p, snap)
	case s.UsesRemap():
		en.Remap(p, en.remapSource(snap))
	default:
		en.CoW(p, cowSource(snap))
	}
}

// nextLive returns the first entry of *log that Algorithm 1 acts on (flag
// != OLD) and advances *log past it, or returns nil once none is left.
func nextLive(log *[]*jmtEntry) *jmtEntry {
	for len(*log) > 0 {
		e := (*log)[0]
		*log = (*log)[1:]
		if !e.old {
			return e
		}
	}
	return nil
}

// cowSource streams a snapshot's live entries, in journal order, as CoW
// pairs from each log to its data-area target.
func cowSource(snap ckptSnapshot) func([]ssd.CoWPair) int {
	log := snap.jmt.Entries()
	return func(buf []ssd.CoWPair) int {
		n := 0
		for ; n < len(buf); n++ {
			e := nextLive(&log)
			if e == nil {
				break
			}
			buf[n] = ssd.CoWPair{Src: e.off, Dst: e.targetOff, Len: int64(e.payload)}
		}
		return n
	}
}

// baselineCheckpoint is conventional engine-side checkpointing: journal
// logs are read into host memory through the block interface and the
// latest versions are written back to their data-area targets, followed by
// a metadata update (Figure 2(c) / Figure 4(a)). It walks the live entries
// ckptReadWindow at a time, their reads in flight in the base's window.
func (en *Engine) baselineCheckpoint(p *sim.Proc, snap ckptSnapshot) {
	tap("", nil)
	log := snap.jmt.Entries()
	// Each block request costs the host software path before it reaches
	// the device; Pace issues the requests one overhead apart. A pass
	// walks the window's entries in journal order, skipping OLD ones.
	var pass []*jmtEntry
	reads := scratch(&en.window, ckptReadWindow)[:0]
	read := func(k int) {
		e := nextLive(&pass)
		reads[k] = en.dev.Read(e.off, int64(e.payload))
		tapOne("read", ssd.RemapEntry{Src: e.off, Len: int64(e.payload)})
	}
	write := func(k int) {
		e := nextLive(&pass)
		en.dev.Release(en.dev.Write(e.targetOff, int64(e.payload), ssd.AreaCheckpoint))
		tapOne("write", ssd.RemapEntry{Dst: e.targetOff, Len: int64(e.payload)})
	}
	for {
		// the window: the next ckptReadWindow live entries
		n, end := 0, 0
		for ; end < len(log) && n < ckptReadWindow; end++ {
			if !log[end].old {
				n++
			}
		}
		if n == 0 {
			break
		}
		span := log[:end]
		log = log[end:]
		// read the journal logs into a host buffer ...
		reads = reads[:n]
		pass = span
		p.Pace(n, HostIOOverhead, read)
		WaitDevice(p, en.dev, reads...)
		clear(reads)
		// ... then write the latest data back to the data area. Waiting
		// on the flush (not the write futures) avoids stalling on
		// partially filled pages under sub-page mapping units.
		pass = span
		p.Pace(n, HostIOOverhead, write)
		WaitDevice(p, en.dev, en.dev.Flush(ssd.AreaCheckpoint))
	}
	// metadata describing the new checkpoint, then make it all durable
	metaLen := roundUp(int64(snap.jmt.Live())*32, hostSector)
	if metaLen > en.layout.MetaBytes {
		metaLen = en.layout.MetaBytes
	}
	if metaLen > 0 {
		en.dev.Release(en.dev.Write(en.layout.MetaStart, metaLen, ssd.AreaData))
	}
	WaitDevice(p, en.dev, en.dev.Flush(ssd.AreaData))
}

// WaitDevice waits for device command futures, then hands them back to
// dev for reuse. Both engines wait on every command they do not release
// at once through it, so no command record is left to the garbage
// collector.
func WaitDevice(p *sim.Proc, dev *ssd.Device, fs ...*sim.Future) {
	p.WaitAll(fs)
	for _, f := range fs {
		dev.Release(f)
	}
}

// remapSource streams the whole JMT as remap requests, OLD entries
// included (the device skips them per Algorithm 1). Sector-aligned FULL
// logs remap their whole stored units onto the record's slot. Everything
// else (conventional logs, merged partials) lands on the FTL's
// read-merge-write path; the length is still rounded to whole units
// because a record owns its entire unit-aligned slot — the old destination
// content never needs preserving. That is why Check-In's sector-aligned
// format is what makes the remap path effective.
func (en *Engine) remapSource(snap ckptSnapshot) func([]ssd.RemapEntry) int {
	aligned := en.cfg.Strategy.SectorAligned()
	unit := int64(en.dev.FTL().UnitSize())
	log := snap.jmt.Entries()
	return func(buf []ssd.RemapEntry) int {
		n := min(len(buf), len(log))
		for i, e := range log[:n] {
			size := roundUp(int64(e.payload), unit)
			if aligned && e.typ == LogFull {
				size = int64(e.stored)
			}
			buf[i] = ssd.RemapEntry{Src: e.off, Dst: e.targetOff, Len: size, Old: e.old}
		}
		log = log[n:]
		return n
	}
}

// The device-side transfers below are shared by both engines: a journal
// checkpoint copies or remaps the JMT's logs onto their data-area slots,
// an LSM flush the sealed WAL records onto the new run's slots. No data
// crosses the host link; each command costs the host overhead to issue.
//
// The requests stream from a source the engine hands in: next writes the
// next requests, in command order, into the buffer it is given and returns
// how many it wrote — the buffer's length while that many remain, 0 once
// none do. A transfer pulls one command's requests at a time into
// command-sized buffers the base keeps, so an epoch allocates nothing per
// request. A source reads state the epoch has sealed (the cut JMT, the
// sealed memtable and the planned run), so a request pulled late equals
// the one built at the epoch's start.

// CheckpointTap, when non-nil, sees each checkpoint transfer as it runs:
// a call with kind "" as the transfer starts, before it pulls a request,
// then one per command it issues, with the command's kind ("remap",
// "multicow", "cow", or Baseline's block requests "read" and "write") and
// its requests. CoW pairs arrive as entries with Old false; a read has no
// Dst and a write no Src. Tests set it to compare a checkpoint's commands
// with a reference list; it is nil otherwise.
var CheckpointTap func(kind string, reqs []ssd.RemapEntry)

// tap passes one command's requests to CheckpointTap, when set.
func tap(kind string, reqs []ssd.RemapEntry) {
	if CheckpointTap != nil {
		CheckpointTap(kind, reqs)
	}
}

// tapOne passes a one-request command to CheckpointTap, when set.
func tapOne(kind string, req ssd.RemapEntry) {
	if CheckpointTap != nil {
		CheckpointTap(kind, []ssd.RemapEntry{req})
	}
}

// CoW copies each pair next streams device-side with the strategy's
// commands: ISC-A issues one CoW command per pair, ISC-B batches pairs
// into multi-CoW commands.
func (b *Base) CoW(p *sim.Proc, next func(buf []ssd.CoWPair) int) {
	tap("", nil)
	if b.cfg.Strategy == StrategyISCA {
		b.cowEach(p, next)
	} else {
		b.cowBatched(p, next)
	}
}

// cowEach is ISC-A: one vendor-specific CoW command per pair,
// ckptCoWWindow commands in flight. The command count equals the pair
// count, so the queue depth becomes the bottleneck.
func (b *Base) cowEach(p *sim.Proc, next func([]ssd.CoWPair) int) {
	dev := b.dev
	chunk := scratch(&b.cowBuf, ckptCoWWindow)
	futs := scratch(&b.window, ckptCoWWindow)[:0]
	cow := func(k int) {
		c := chunk[k]
		futs[k] = dev.CoW(c.Src, c.Dst, c.Len)
		tapOne("cow", ssd.RemapEntry{Src: c.Src, Dst: c.Dst, Len: c.Len})
	}
	for n := next(chunk); n > 0; n = next(chunk) {
		futs = futs[:n]
		p.Pace(n, HostIOOverhead, cow)
		WaitDevice(p, dev, futs...)
		clear(futs)
	}
	WaitDevice(p, dev, dev.Flush(ssd.AreaData))
}

// cowBatched is ISC-B: the pairs ride in multi-CoW commands of
// multiCoWBatch pairs, reducing command overhead to a negligible level and
// letting the device schedule consecutive reads and consecutive writes.
func (b *Base) cowBatched(p *sim.Proc, next func([]ssd.CoWPair) int) {
	dev := b.dev
	// At most two commands in flight: the device works on one batch while
	// the next is queued, and host queries get service in between — a
	// device that let one checkpoint command book every die for hundreds
	// of milliseconds would starve the host. So batch k fills half k%2
	// of the buffer: batch k-2, the last to use it, has completed.
	bufs := scratch(&b.cowBuf, 2*multiCoWBatch)
	var prev *sim.Future
	for k := 0; ; k++ {
		buf := bufs[k%2*multiCoWBatch:][:multiCoWBatch]
		n := next(buf)
		if n == 0 {
			break
		}
		p.Sleep(HostIOOverhead)
		cur := dev.MultiCoW(buf[:n])
		tapPairs(buf[:n])
		if prev != nil {
			WaitDevice(p, dev, prev)
		}
		prev = cur
	}
	if prev != nil {
		WaitDevice(p, dev, prev)
	}
	WaitDevice(p, dev, dev.Flush(ssd.AreaData))
}

// tapPairs passes one multi-CoW command to CheckpointTap, when set.
func tapPairs(pairs []ssd.CoWPair) {
	if CheckpointTap == nil {
		return
	}
	reqs := make([]ssd.RemapEntry, len(pairs))
	for i, c := range pairs {
		reqs[i] = ssd.RemapEntry{Src: c.Src, Dst: c.Dst, Len: c.Len}
	}
	CheckpointTap("multicow", reqs)
}

// Remap is ISC-C and Check-In: the requests next streams ride in
// checkpoint-request commands of ckptCmdBatch entries and the FTL
// checkpoints by remapping. Whether entries remap purely or degrade to
// read-merge-writes depends on how the log laid the records out; the
// FTL's Stats count both.
func (b *Base) Remap(p *sim.Proc, next func(buf []ssd.RemapEntry) int) {
	tap("", nil)
	dev := b.dev
	// The cut brackets tell the FTL's translation-metadata layer to defer
	// dirty writeback across the remap burst and settle it once, densest
	// page first, when the burst has drained (dftl mode; no-op otherwise).
	dev.BeginCheckpointCut()
	bufs := scratch(&b.remapBuf, 2*ckptCmdBatch)
	var prev *sim.Future
	for k := 0; ; k++ {
		// batch k fills half k%2 of the buffers (see cowBatched)
		buf := bufs[k%2*ckptCmdBatch:][:ckptCmdBatch]
		n := next(buf)
		if n == 0 {
			break
		}
		p.Sleep(HostIOOverhead)
		fut := dev.CheckpointRequest(buf[:n])
		tap("remap", buf[:n])
		// keep at most two checkpoint commands in flight (see cowBatched)
		if prev != nil {
			WaitDevice(p, dev, prev)
		}
		prev = fut
	}
	if prev != nil {
		WaitDevice(p, dev, prev)
	}
	// Every remap command has been serviced: settle the deferred translation
	// writeback before the durability barrier below, so the flush covers the
	// translation pages too.
	dev.EndCheckpointCut()
	// durability barrier: any read-merge-write residue must hit flash
	WaitDevice(p, dev, dev.Flush(ssd.AreaCheckpoint))
}
