package ftl

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/sim"
)

// Device-level recovery (the paper's Section III-G): every programmed slot
// carries an out-of-band (OOB) record — the logical address it belongs to
// and a monotonic sequence number. Checkpoint remaps append alias records
// (the data-area address now also referencing the slot), and journal
// deletions append trim extents; both persist through the metadata-flush
// path backed by the device's power-loss capacitors. After a sudden power
// off, the FTL reconstructs the whole mapping table by scanning OOB areas
// in physical order and replaying alias/trim records in sequence order.

// oobRecord is one binding record: a logical unit and its sequence number.
// The alias log holds them whole; a slot's own OOB record is split across
// recoveryLog.oobLun and oobSeq.
type oobRecord struct {
	lun int64
	seq uint64
}

// trimExtent is a persisted journal-deletion record.
type trimExtent struct {
	first, last int64 // logical unit range, inclusive
	seq         uint64
}

// recoveryLog is the FTL's persistent recovery state: primary OOB per slot,
// alias records from remaps, and trim extents. In dftl mode each translation
// page's OOB additionally records the tvpn it holds (tp, indexed by physical
// page id; allocated only when the flash map is on), which is what rebuilds
// the global translation directory after a sudden power-off.
//
// A slot's OOB record is split into two arrays, 12 B per slot instead of a
// padded 16 B struct: the lun fits 32 bits like every address table, while
// the sequence number stays 64-bit, since preserveCopy carries old sequence
// numbers forward and they can neither wrap nor be renumbered cheaply.
type recoveryLog struct {
	seq     uint64
	oobLun  chunkTable[int32]    // slot id → logical unit of its OOB record
	oobSeq  chunkTable[uint64]   // slot id → sequence number; 0 = never written
	aliases slotTable[oobRecord] // slot id → alias bindings from remaps
	trims   []trimExtent
	tp      chunkTable[int32] // pid → tvpn of the live translation page it holds (-1)
}

func newRecoveryLog(blocks int, slotsPerBlock int64) *recoveryLog {
	slots := int64(blocks) * slotsPerBlock
	return &recoveryLog{
		oobLun:  newChunkTable[int32](slots, 0),
		oobSeq:  newChunkTable[uint64](slots, 0),
		aliases: newSlotTable[oobRecord](blocks, slotsPerBlock),
	}
}

func (r *recoveryLog) next() uint64 {
	r.seq++
	return r.seq
}

// aliasesOf returns sid's alias records (nil when it has none). The result
// shares storage with the log.
func (r *recoveryLog) aliasesOf(sid int64) []oobRecord { return r.aliases.get(sid) }

func (r *recoveryLog) dropAliases(sid int64) { r.aliases.drop(sid) }

func (r *recoveryLog) noteWrite(sid, lun int64) {
	r.oobLun.set(sid, int32(lun))
	r.oobSeq.set(sid, r.next())
	r.dropAliases(sid)
}

func (r *recoveryLog) noteAlias(sid, lun int64) {
	r.aliases.add(sid, oobRecord{lun: lun, seq: r.next()})
}

// noteTrim records the trim of units [first, last], which the caller has
// just unmapped. Replay zeroes every binding older than the newest extent
// covering its unit, and the new extent is the newest, so two rules keep
// the replay exact while the log shrinks:
//   - an earlier extent the new one covers zeroes nothing the new one
//     does not: it is dropped;
//   - an earlier extent that overlaps or touches the new one, and whose
//     units outside it are all unmapped, is merged into it. An unmapped
//     unit was last trimmed after its last binding, so replay zeroes its
//     bindings either way; a later binding is newer than the merged
//     extent.
//
// A journal half trims from its start at every checkpoint, and the units
// past its latest length stay unmapped, so each half keeps one extent
// however many checkpoints run.
func (r *recoveryLog) noteTrim(first, last int64, unmapped func(lo, hi int64) bool) {
	for merged := true; merged; {
		merged = false
		keep := r.trims[:0]
		for _, t := range r.trims {
			switch {
			case t.first >= first && t.last <= last:
			case t.first <= last+1 && t.last >= first-1 && unmapped(t.first, first-1) && unmapped(last+1, t.last):
				first, last = min(first, t.first), max(last, t.last)
				merged = true
			default:
				keep = append(keep, t)
			}
		}
		r.trims = keep
	}
	r.trims = append(r.trims, trimExtent{first: first, last: last, seq: r.next()})
}

// noteErase drops the records of the erased block whose slots start at base.
func (r *recoveryLog) noteErase(base, slots int64) {
	r.oobLun.fill(base, base+slots, 0)
	r.oobSeq.fill(base, base+slots, 0)
	r.aliases.dropBlock(base)
}

// preserveCopy rewrites newSid's records to carry the sequence numbers of
// the oldSid records it was copied from, then drops oldSid's records (its
// block erases at the end of the collection pass). GC moves data without
// changing its logical write time — the copied page's OOB carries the
// source's timestamp, not the migration's. Minting fresh sequence numbers
// instead loses a host write that races the collection: Write appends the
// new slot (recording its OOB) and only then binds it, and a page program
// inside that append can trigger GC that migrates the lun's old slot — a
// fresh-seq copy of stale data would outrank the already-recorded new
// write on SPOR replay.
func (r *recoveryLog) preserveCopy(oldSid, newSid int64) {
	oldAliases := r.aliasesOf(oldSid)
	seqOf := func(lun int64) uint64 {
		var best uint64
		if seq := r.oobSeq.at(oldSid); seq != 0 && int64(r.oobLun.at(oldSid)) == lun {
			best = seq
		}
		for _, a := range oldAliases {
			if a.lun == lun && a.seq > best {
				best = a.seq
			}
		}
		return best
	}
	if r.oobSeq.at(newSid) != 0 {
		if s := seqOf(int64(r.oobLun.at(newSid))); s != 0 {
			r.oobSeq.set(newSid, s)
		}
	}
	newAliases := r.aliasesOf(newSid)
	for i, a := range newAliases {
		if s := seqOf(a.lun); s != 0 {
			newAliases[i].seq = s
		}
	}
	r.clearSlot(oldSid)
}

// clearSlot drops one slot's records without assigning a new sequence
// number — used when a program failure relocates a buffered page and the
// ruined page's OOB must not be scanned as live (a retired block is listed
// in the bad-block table, which SPOR excludes).
func (r *recoveryLog) clearSlot(sid int64) {
	r.oobLun.set(sid, 0)
	r.oobSeq.set(sid, 0)
	r.dropAliases(sid)
}

// noteTransWrite records that physical page pid now holds the live
// translation page for tvpn (dftl mode only; tp is nil in dram mode).
func (r *recoveryLog) noteTransWrite(pid int64, tvpn int) {
	r.tp.set(pid, int32(tvpn))
}

// clearTransPage drops a translation page's OOB record when it is
// invalidated (superseded by a rewrite, migrated by GC, or erased).
func (r *recoveryLog) clearTransPage(pid int64) {
	r.tp.set(pid, -1)
}

// SPORReport describes a simulated sudden-power-off recovery.
type SPORReport struct {
	ScannedPages  int
	BoundUnits    int64
	AliasBindings int64
	TrimsReplayed int
	Mismatches    int64
	// VolatileLost counts live mappings that pointed at slots still staged
	// in the volatile write buffer (not yet programmed) at the crash
	// instant. Those are legitimately lost on power failure — the host-side
	// journal replay re-creates them — so they are reported separately from
	// Mismatches, which flags only durable state the OOB scheme failed to
	// reconstruct.
	VolatileLost int64
	// TransPages counts live translation pages whose OOB records rebuilt the
	// global translation directory (dftl mode only; zero in dram mode).
	TransPages int64
	Duration   sim.VTime
}

// SimulateSPOR models a sudden power-off at the current instant followed by
// the device's own recovery: the mapping table is rebuilt purely from OOB
// scans and the persisted alias/trim records, then compared against the
// live table. A non-zero Mismatches count means the recovery protocol lost
// information — the invariant the paper's OOB scheme guarantees. The live
// FTL state is not modified.
//
// The scan cost is modeled as one fast OOB read per programmed page
// (oobReadTime each), serialized per die through the usual channels.
func (f *FTL) SimulateSPOR() *SPORReport {
	rep := f.VerifySPOR()

	// Cost model: OOB reads serialized on each die's channel path.
	const oobReadTime = 25 * sim.Microsecond
	start := f.eng.Now()
	var latest sim.VTime
	for b := 0; b < f.totalBlocks; b++ {
		programmed := f.array.ProgrammedPages(b)
		if programmed == 0 {
			continue
		}
		if end := f.array.ReserveDie(b, sim.VTime(programmed)*oobReadTime); end > latest {
			latest = end
		}
	}
	if latest > start {
		rep.Duration = latest - start
	}
	return rep
}

// VerifySPOR is the pure core of SimulateSPOR: it rebuilds the mapping
// table from OOB records and compares it against the live table, without
// charging any simulated time. Unlike SimulateSPOR it is safe to call from
// inside an engine event (the crash-injection harness does), because it
// never touches die reservations or other shared simulation state.
func (f *FTL) VerifySPOR() *SPORReport {
	rep := &SPORReport{}

	// 1. Rebuild candidate bindings: the latest OOB record per logical unit,
	// kept in dense per-lun scratch. Every record's sequence number is at
	// least 1, so seq 0 marks a unit with no binding; on equal sequence
	// numbers the record scanned first keeps the unit.
	sids := make([]int32, f.totalUnits)
	seqs := make([]uint64, f.totalUnits)
	bind := func(lun, sid int64, seq uint64) {
		if seq > seqs[lun] {
			sids[lun], seqs[lun] = int32(sid), seq
		}
	}
	slotsPerBlock := int64(f.pagesPerBlk) * int64(f.slotsPerPage)
	for b := 0; b < f.totalBlocks; b++ {
		programmed := f.array.ProgrammedPages(b)
		if programmed == 0 {
			continue
		}
		rep.ScannedPages += programmed
		base := f.slotID(b, 0, 0)
		for s := int64(0); s < slotsPerBlock; s++ {
			sid := base + s
			if f.slotPage(sid) >= programmed {
				break
			}
			if seq := f.rlog.oobSeq.at(sid); seq != 0 {
				bind(int64(f.rlog.oobLun.at(sid)), sid, seq)
			}
			for _, rec := range f.rlog.aliasesOf(sid) {
				bind(rec.lun, sid, rec.seq)
				rep.AliasBindings++
			}
		}
	}

	// 2. Replay trim extents: a trim invalidates any binding older than it.
	for _, tr := range f.rlog.trims {
		rep.TrimsReplayed++
		for lun := tr.first; lun <= tr.last; lun++ {
			if seqs[lun] < tr.seq {
				seqs[lun] = 0
			}
		}
	}

	// 3. Compare against the live table, one count per unit whose rebuilt
	// entry differs from the live one (a rebuilt binding for an unmapped
	// unit included). A live mapping whose slot is still staged in the
	// volatile write buffer is expected to vanish on power loss; count it as
	// VolatileLost rather than a protocol failure.
	for lun, sid := range f.l2p.all() {
		want, got := int64(sid), int64(-1)
		if seqs[lun] != 0 {
			got = int64(sids[lun])
			rep.BoundUnits++
		}
		if want != got {
			if want >= 0 && f.isBuffered(want) {
				rep.VolatileLost++
			} else {
				rep.Mismatches++
			}
		}
	}

	// 4. dftl mode: rebuild the global translation directory from the
	// translation-page OOB records and compare it against the live GTD. Each
	// live translation page's OOB names the tvpn it holds; a crash must never
	// leave the scan unable to reproduce the directory exactly (translation
	// pages are written through the capacitor-backed metadata path, and the
	// invalidate-then-append discipline means at most one page claims a tvpn).
	if f.fm.enabled {
		gtd := make([]int64, f.fm.numTPs)
		for i := range gtd {
			gtd[i] = -1
		}
		for pid, tv := range f.rlog.tp.all() {
			if tv < 0 {
				continue
			}
			rep.TransPages++
			if f.pidPage(int64(pid)) >= f.array.ProgrammedPages(f.pidBlock(int64(pid))) {
				rep.Mismatches++ // OOB claims a page that was never programmed
				continue
			}
			if gtd[tv] >= 0 {
				rep.Mismatches++ // two live pages claim the same tvpn
				continue
			}
			gtd[tv] = int64(pid)
		}
		for tv, pid := range gtd {
			if pid != f.fm.gtd[tv] {
				rep.Mismatches++
			}
		}
	}
	return rep
}

// String renders the report. The translation-page clause appears only in
// dftl mode so dram-mode output stays byte-identical.
func (r *SPORReport) String() string {
	s := fmt.Sprintf("SPOR: scanned %d pages, rebuilt %d units (%d aliases, %d trims) in %v, %d mismatches, %d volatile-lost",
		r.ScannedPages, r.BoundUnits, r.AliasBindings, r.TrimsReplayed, r.Duration, r.Mismatches, r.VolatileLost)
	if r.TransPages > 0 {
		s += fmt.Sprintf(", %d trans-pages", r.TransPages)
	}
	return s
}
