package ftl

// FTL-side recovery machinery above the NAND fault model (nand/reliability):
//
//   - read-retry: a correctable read error re-reads the page under shifted
//     voltages (bounded ladder, per-step latency); an uncorrectable read
//     walks the full ladder, pays a soft-decision decode, and queues the
//     block for a read-reclaim scrub. Read faults are latency/wear-only —
//     data always recovers — so the mapping is untouched.
//   - program failure: the failed page's buffered slots are restaged on a
//     fresh block of the same frontier (programPage's retry loop), every
//     logical reference rebound, and the block condemned.
//   - erase failure: the GC victim is retired in place of being freed.
//   - retirement: a condemned block's remaining live slots migrate through
//     the GC stream, the block becomes blockBad, and a spare block joins
//     the free pool in its place; with the spare pool exhausted the FTL
//     latches read-only (graceful degradation — reads keep working).
//
// Retirement after a program failure cannot run inline: the failure
// surfaces inside appendSlot, and migrating the condemned block's live data
// appends to the GC stream — re-entering the very frontier machinery that
// is mid-update. The handlers therefore queue the block and DrainFaults
// processes the queue at the host entry points and the deallocator tick,
// when the stack is at a safe depth (the same rule GC itself follows).

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/trace"
)

// Read-recovery ladder. An uncorrectable read walks all maxReadRetries
// voltage-shift steps and then pays the soft-decision (LDPC soft-read)
// decode.
const (
	maxReadRetries    = 6
	retryStepLatency  = 80 * sim.Microsecond
	softDecodeLatency = 400 * sim.Microsecond
)

// pendingMark bits: which deferred-fault queues a block currently sits in.
const (
	pendRetire  uint8 = 1 << 0
	pendReclaim uint8 = 1 << 1
)

// readFlash wraps every FTL page read with the reliability model: clean
// reads go straight to the array (and are byte-identical to the pre-model
// path when the model is off), faulty reads run the recovery ladder. The
// read's completion joins fan; a nil fan waits for nothing.
func (f *FTL) readFlash(block, page, nbytes int, fan *sim.FanIn) {
	var done sim.VTime
	if steps, uncorr := f.array.SampleRead(block); steps == 0 && !uncorr {
		done = f.array.ReadPage(block, page, nbytes)
	} else {
		done = f.readFlashRecover(block, page, nbytes, steps, uncorr)
	}
	if fan != nil {
		fan.Add(done, f.eng.ReserveSeq())
	}
}

// readFlashRecover charges the bounded voltage-shift retry ladder — the
// initial read plus one re-read and one shift-setup delay per step — and,
// for an uncorrectable page, the soft-decision decode on top, after which
// the block is queued for a read-reclaim scrub. It returns when the last
// recovery step finishes.
func (f *FTL) readFlashRecover(block, page, nbytes, steps int, uncorr bool) sim.VTime {
	attempts := steps
	if uncorr || attempts > maxReadRetries {
		attempts = maxReadRetries
	}
	for i := 0; i <= attempts; i++ {
		f.array.ReadPage(block, page, nbytes)
	}
	extra := sim.VTime(attempts) * retryStepLatency
	if uncorr {
		extra += softDecodeLatency
		f.queueReclaim(block)
	}
	end := f.array.ReserveDie(block, extra)
	if f.cfg.Tracer != nil {
		f.cfg.Tracer.Emit(f.eng.Now(), trace.KindReadRetry, int64(block),
			fmt.Sprintf("page=%d attempts=%d uncorrectable=%v", page, attempts, uncorr))
	}
	f.cfg.Injector.Hit(inject.SiteReadRetry)
	return end
}

// handleProgramFail recovers frontier idx of stream s from a program
// failure: the ruined page is consumed on the failing block, the buffered
// slots are restaged at page 0 of a freshly allocated block with every
// logical reference rebound, and the failing block is condemned (queued for
// migration + retirement). When inflight is set, the last buffered slot
// belongs to the appendSlot call still on the stack; it is not bound yet,
// so only its recovery-log record moves and frontier.relocBase tells the
// caller where its slot ended up.
func (f *FTL) handleProgramFail(s Stream, idx int, inflight bool) {
	fr := &f.fronts[s][idx]
	old := fr.block
	oldPage := f.array.ProgrammedPages(old)
	fill := len(fr.fillLSNs)

	f.array.ProgramFailedAttempt(old, fill*f.unit)
	// The buffered slots were counted against old when staged; the rest of
	// the ruined physical page is dead on it too.
	f.written[old] += int32(f.slotsPerPage - fill)

	nb := f.allocBlock(f.array.Geometry().DieOfBlock(old))
	fr.block = nb
	fr.relocBase = f.slotID(nb, 0, 0)
	for i := 0; i < fill; i++ {
		oldSid := f.slotID(old, oldPage, i)
		newSid := fr.relocBase + int64(i)
		f.written[nb]++
		rc := f.refcnt.at(oldSid)
		switch {
		case rc > 0:
			// Bound slot: move every logical reference. luns is built by
			// hand — not via lunsOf — because a caller (the GC migrate pass)
			// may hold the shared scratch buffer across this call.
			luns := []int64{int64(f.rev.at(oldSid))}
			for _, l := range f.revOverflow.get(oldSid) {
				luns = append(luns, int64(l))
			}
			for _, lun := range luns {
				f.l2p.set(lun, -1)
			}
			if rc > 1 {
				f.revOverflow.drop(oldSid)
			}
			f.refcnt.set(oldSid, 0)
			f.rev.set(oldSid, -1)
			f.validCount[old]--
			f.noteMapDirty(len(luns))
			f.rlog.clearSlot(oldSid)
			f.rlog.noteWrite(newSid, luns[0])
			f.bindSlot(luns[0], newSid)
			for _, lun := range luns[1:] {
				f.shareSlot(lun, newSid)
			}
		case inflight && i == fill-1:
			// The append in progress: not bound yet; the caller re-derives
			// its slot id from relocBase after programPage returns.
			f.rlog.clearSlot(oldSid)
			f.rlog.noteWrite(newSid, fr.fillLSNs[i])
		default:
			// Dead staged slot (overwritten while buffered): nothing to
			// rebind, but its stale OOB record must not survive.
			f.rlog.clearSlot(oldSid)
		}
	}
	f.noteProgramFail(old, s, fill)
}

// noteProgramFail condemns a block after a program failure: stats, trace,
// the deferred retirement queue, and the injection site (which fires with
// the mapping already consistent).
func (f *FTL) noteProgramFail(block int, s Stream, restaged int) {
	f.stats.ProgramFailMoves++
	f.queueRetire(block)
	if f.cfg.Tracer != nil {
		f.cfg.Tracer.Emit(f.eng.Now(), trace.KindProgramFail, int64(block),
			fmt.Sprintf("stream=%d restaged=%d", s, restaged))
	}
	f.cfg.Injector.Hit(inject.SiteProgramFail)
}

// queueRetire schedules a condemned block for migration + retirement.
func (f *FTL) queueRetire(b int) {
	if f.pendingMark[b]&pendRetire != 0 {
		return
	}
	f.pendingMark[b] |= pendRetire
	f.pendingRetire = append(f.pendingRetire, b)
}

// queueReclaim schedules a read-disturbed block for a scrub (migrate +
// erase). Only closed blocks are queued: frontiers and free blocks churn on
// their own, and a block already condemned will be retired instead.
func (f *FTL) queueReclaim(b int) {
	if f.state[b] != blockClosed || f.gcVictim == b {
		return
	}
	if f.pendingMark[b]&(pendReclaim|pendRetire) != 0 {
		return
	}
	f.pendingMark[b] |= pendReclaim
	f.pendingReclaim = append(f.pendingReclaim, b)
}

// DrainFaults processes the deferred fault queues — bad-block retirement
// after program failures, read-reclaim scrubs after uncorrectable reads —
// once the stack is at a safe depth (not inside GC or another handler).
// Host entry points and the deallocator tick call it; a no-op when nothing
// is queued.
func (f *FTL) DrainFaults() {
	if f.gcDepth > 0 || (len(f.pendingRetire) == 0 && len(f.pendingReclaim) == 0) {
		return
	}
	f.gcDepth++
	for len(f.pendingRetire) > 0 || len(f.pendingReclaim) > 0 {
		// Retirements first: the handling itself (migration programs, scrub
		// reads) can fault and grow either queue, so loop until both drain.
		if n := len(f.pendingRetire) - 1; n >= 0 {
			b := f.pendingRetire[n]
			f.pendingRetire = f.pendingRetire[:n]
			f.pendingMark[b] &^= pendRetire
			prev := f.gcVictim
			f.gcVictim = b
			f.migrateLive(b)
			f.gcVictim = prev
			f.retireBlock(b)
			f.cfg.Injector.Hit(inject.SiteBadBlockRetire)
			continue
		}
		n := len(f.pendingReclaim) - 1
		b := f.pendingReclaim[n]
		f.pendingReclaim = f.pendingReclaim[:n]
		f.pendingMark[b] &^= pendReclaim
		if f.state[b] != blockClosed || f.gcVictim == b {
			continue // reclaimed or reopened since it was queued
		}
		f.stats.ReadReclaims++
		f.collectBlock(b)
	}
	f.gcDepth--
}

// retireBlock permanently removes b from service (a grown bad block). The
// caller has already migrated its live data and cleared its recovery-log
// records. A spare block, when available, joins the free pool in its place;
// once the pool is exhausted the FTL latches read-only.
func (f *FTL) retireBlock(b int) {
	f.state[b] = blockBad
	f.badCount++
	f.stats.RetiredBlocks++
	if f.cfg.Tracer != nil {
		f.cfg.Tracer.Emit(f.eng.Now(), trace.KindBlockRetire, int64(b),
			fmt.Sprintf("spares=%d", f.spareCount))
	}
	geo := f.array.Geometry()
	if sp := f.takeSpare(geo.DieOfBlock(b)); sp >= 0 {
		f.state[sp] = blockFree
		f.freeByDie[geo.DieOfBlock(sp)] = append(f.freeByDie[geo.DieOfBlock(sp)], sp)
		f.freeCount++
	} else if !f.readOnly {
		f.readOnly = true
		if f.cfg.Tracer != nil {
			f.cfg.Tracer.Emit(f.eng.Now(), trace.KindReadOnly, int64(b), "spare pool exhausted")
		}
	}
}

// takeSpare pops a spare block, preferring the failed block's die so the
// per-die free pools stay balanced; -1 when the pool is empty.
func (f *FTL) takeSpare(preferDie int) int {
	if f.spareCount == 0 {
		return -1
	}
	dies := len(f.spareByDie)
	for i := 0; i < dies; i++ {
		d := (preferDie + i) % dies
		if n := len(f.spareByDie[d]); n > 0 {
			b := f.spareByDie[d][n-1]
			f.spareByDie[d] = f.spareByDie[d][:n-1]
			f.spareCount--
			return b
		}
	}
	return -1
}

// ReadOnly reports whether the FTL degraded to read-only (a retirement
// found the spare pool exhausted). Reads, GC and checkpointing keep
// working; the engine rejects new host writes.
func (f *FTL) ReadOnly() bool { return f.readOnly }

// Health summarizes the reliability state for device-level reporting.
type Health struct {
	RetiredBlocks int
	SparesLeft    int
	ReadOnly      bool
}

// Health returns the current reliability summary.
func (f *FTL) Health() Health {
	return Health{RetiredBlocks: f.badCount, SparesLeft: f.spareCount, ReadOnly: f.readOnly}
}
