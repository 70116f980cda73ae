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
		en.Remap(p, en.remapRequests(snap))
	default:
		var pairs []ssd.CoWPair
		for _, e := range latestEntries(snap) {
			pairs = append(pairs, ssd.CoWPair{Src: e.off, Dst: e.targetOff, Len: int64(e.payload)})
		}
		en.CoW(p, pairs)
	}
}

// latestEntries filters a snapshot down to the entries Algorithm 1 would
// act on (flag != OLD), in journal order.
func latestEntries(snap ckptSnapshot) []*jmtEntry {
	out := make([]*jmtEntry, 0, snap.jmt.Live())
	for _, e := range snap.jmt.Entries() {
		if !e.old {
			out = append(out, e)
		}
	}
	return out
}

// baselineCheckpoint is conventional engine-side checkpointing: journal
// logs are read into host memory through the block interface and the
// latest versions are written back to their data-area targets, followed by
// a metadata update (Figure 2(c) / Figure 4(a)).
func (en *Engine) baselineCheckpoint(p *sim.Proc, snap ckptSnapshot) {
	entries := latestEntries(snap)
	// Each block request costs the host software path before it reaches
	// the device; Pace issues the requests one overhead apart.
	var chunk []*jmtEntry
	reads := make([]*sim.Future, 0, min(ckptReadWindow, len(entries)))
	read := func(k int) {
		e := chunk[k]
		reads[k] = en.dev.Read(e.off, int64(e.payload))
	}
	write := func(k int) {
		e := chunk[k]
		en.dev.Release(en.dev.Write(e.targetOff, int64(e.payload), ssd.AreaCheckpoint))
	}
	for i := 0; i < len(entries); i += ckptReadWindow {
		chunk = entries[i:min(i+ckptReadWindow, len(entries))]
		// read the journal logs into a host buffer ...
		reads = reads[:len(chunk)]
		p.Pace(len(chunk), HostIOOverhead, read)
		waitRelease(p, en.dev, reads...)
		// ... then write the latest data back to the data area. Waiting
		// on the flush (not the write futures) avoids stalling on
		// partially filled pages under sub-page mapping units.
		p.Pace(len(chunk), HostIOOverhead, write)
		waitRelease(p, en.dev, en.dev.Flush(ssd.AreaCheckpoint))
	}
	// metadata describing the new checkpoint, then make it all durable
	metaLen := roundUp(int64(len(entries))*32, hostSector)
	if metaLen > en.layout.MetaBytes {
		metaLen = en.layout.MetaBytes
	}
	if metaLen > 0 {
		en.dev.Release(en.dev.Write(en.layout.MetaStart, metaLen, ssd.AreaData))
	}
	waitRelease(p, en.dev, en.dev.Flush(ssd.AreaData))
}

// waitRelease waits for device command futures, then hands them back to
// dev for reuse.
func waitRelease(p *sim.Proc, dev *ssd.Device, fs ...*sim.Future) {
	p.WaitAll(fs)
	for _, f := range fs {
		dev.Release(f)
	}
}

// remapRequests ships the whole JMT, OLD entries included (the device
// skips them per Algorithm 1). Sector-aligned FULL logs remap their whole
// stored units onto the record's slot. Everything else (conventional logs,
// merged partials) lands on the FTL's read-merge-write path; the length is
// still rounded to whole units because a record owns its entire
// unit-aligned slot — the old destination content never needs preserving.
// That is why Check-In's sector-aligned format is what makes the remap
// path effective.
func (en *Engine) remapRequests(snap ckptSnapshot) []ssd.RemapEntry {
	aligned := en.cfg.Strategy.SectorAligned()
	unit := int64(en.dev.FTL().UnitSize())
	reqs := make([]ssd.RemapEntry, 0, snap.jmt.Len())
	for _, e := range snap.jmt.Entries() {
		n := roundUp(int64(e.payload), unit)
		if aligned && e.typ == LogFull {
			n = int64(e.stored)
		}
		reqs = append(reqs, ssd.RemapEntry{Src: e.off, Dst: e.targetOff, Len: n, Old: e.old})
	}
	return reqs
}

// The device-side transfers below are shared by both engines: a journal
// checkpoint copies or remaps the JMT's logs onto their data-area slots,
// an LSM flush the sealed WAL records onto the new run's slots. No data
// crosses the host link; each command costs the host overhead to issue.

// CoW copies each pair device-side with the strategy's commands: ISC-A
// issues one CoW command per pair, ISC-B batches pairs into multi-CoW
// commands.
func (b *Base) CoW(p *sim.Proc, pairs []ssd.CoWPair) {
	if b.cfg.Strategy == StrategyISCA {
		cowEach(p, b.dev, pairs)
	} else {
		cowBatched(p, b.dev, pairs)
	}
}

// cowEach is ISC-A: one vendor-specific CoW command per pair,
// ckptCoWWindow commands in flight. The command count equals the pair
// count, so the queue depth becomes the bottleneck.
func cowEach(p *sim.Proc, dev *ssd.Device, pairs []ssd.CoWPair) {
	var chunk []ssd.CoWPair
	futs := make([]*sim.Future, 0, min(ckptCoWWindow, len(pairs)))
	cow := func(k int) {
		c := chunk[k]
		futs[k] = dev.CoW(c.Src, c.Dst, c.Len)
	}
	for i := 0; i < len(pairs); i += ckptCoWWindow {
		chunk = pairs[i:min(i+ckptCoWWindow, len(pairs))]
		futs = futs[:len(chunk)]
		p.Pace(len(chunk), HostIOOverhead, cow)
		waitRelease(p, dev, futs...)
	}
	waitRelease(p, dev, dev.Flush(ssd.AreaData))
}

// cowBatched is ISC-B: the pairs ride in multi-CoW commands of
// multiCoWBatch pairs, reducing command overhead to a negligible level and
// letting the device schedule consecutive reads and consecutive writes.
func cowBatched(p *sim.Proc, dev *ssd.Device, pairs []ssd.CoWPair) {
	// At most two commands in flight: the device works on one batch while
	// the next is queued, and host queries get service in between — a
	// device that let one checkpoint command book every die for hundreds
	// of milliseconds would starve the host.
	var prev *sim.Future
	for i := 0; i < len(pairs); i += multiCoWBatch {
		p.Sleep(HostIOOverhead)
		cur := dev.MultiCoW(pairs[i:min(i+multiCoWBatch, len(pairs))])
		if prev != nil {
			p.Wait(prev)
		}
		prev = cur
	}
	if prev != nil {
		p.Wait(prev)
	}
	p.Wait(dev.Flush(ssd.AreaData))
}

// Remap is ISC-C and Check-In: the requests ride in checkpoint-request
// commands of ckptCmdBatch entries and the FTL checkpoints by remapping.
// Whether entries remap purely or degrade to read-merge-writes depends on
// how the log laid the records out; the FTL's Stats count both.
func (b *Base) Remap(p *sim.Proc, reqs []ssd.RemapEntry) {
	dev := b.dev
	// The cut brackets tell the FTL's translation-metadata layer to defer
	// dirty writeback across the remap burst and settle it once, densest
	// page first, when the burst has drained (dftl mode; no-op otherwise).
	dev.BeginCheckpointCut()
	var prev *sim.Future
	for i := 0; i < len(reqs); i += ckptCmdBatch {
		p.Sleep(HostIOOverhead)
		fut := dev.CheckpointRequest(reqs[i:min(i+ckptCmdBatch, len(reqs))])
		// keep at most two checkpoint commands in flight (see cowBatched)
		if prev != nil {
			p.Wait(prev)
		}
		prev = fut
	}
	if prev != nil {
		p.Wait(prev)
	}
	// Every remap command has been serviced: settle the deferred translation
	// writeback before the durability barrier below, so the flush covers the
	// translation pages too.
	dev.EndCheckpointCut()
	// durability barrier: any read-merge-write residue must hit flash
	p.Wait(dev.Flush(ssd.AreaCheckpoint))
}
