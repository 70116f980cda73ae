package ftl

import (
	"fmt"
	"strings"
)

// CheckInvariants verifies the FTL's internal consistency: the
// logical-to-physical map, the per-slot reference counts with their reverse
// mappings, per-block valid-slot accounting, and the free-block pool must
// all agree. The crash-consistency harness (internal/check) calls it at
// every injected crash point; it is pure (no simulated time, no mutation)
// and returns an error describing the first few violations, or nil.
//
// Invariants checked:
//
//  1. Every mapped logical unit references a live slot, and appears exactly
//     once in that slot's reverse mappings (LSN→slot is a function; the
//     reference sets are its exact inverse).
//  2. Every live slot's reference count equals 1 (primary reverse mapping)
//     plus its overflow entries, with no duplicate or dangling references.
//  3. A block's valid-slot count equals the number of live slots it holds,
//     and never exceeds what was written to the block.
//  4. The free-block pool is consistent: freeCount matches the per-die free
//     lists and the block state array, and free blocks hold no live slots.
//  5. Each stream's partial-page marker matches its frontiers: at most one
//     frontier per stream holds a partially filled page.
//  6. In dftl mode (Config.FlashMap) the cached mapping table, its LRU, the
//     global translation directory and the flash-resident entry copies are
//     mutually consistent — see fmCheckInvariants in dftl.go.
//  7. In both slot tables (the reverse-mapping overflow and the recovery
//     log's alias records) every set index names a non-empty pooled slice
//     of its own, and the set indexes account for every live pool entry.
func (f *FTL) CheckInvariants() error {
	const maxViolations = 8
	var violations []string
	report := func(format string, args ...any) {
		if len(violations) < maxViolations {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}

	// 1 & 2: walk the map and the reference sets in both directions.
	refs := make([]int32, f.refcnt.len()) // slot id → live references seen via l2p
	for lun, sid := range f.l2p.all() {
		if sid < 0 {
			continue
		}
		if f.refcnt.at(int64(sid)) == 0 {
			report("lun %d maps to dead slot %d (refcnt 0)", lun, sid)
			continue
		}
		found := f.rev.at(int64(sid)) == int32(lun)
		for _, l := range f.revOverflow.get(int64(sid)) {
			if l == int32(lun) {
				if found {
					report("lun %d appears twice in slot %d's reverse mappings", lun, sid)
				}
				found = true
			}
		}
		if !found {
			report("lun %d maps to slot %d but is missing from its reverse mappings", lun, sid)
		}
		refs[sid]++
	}
	f.revOverflow.each(func(sid int64, ov []int32) {
		if f.refcnt.at(sid) < 2 {
			report("slot %d has %d overflow reverse mappings but refcnt %d", sid, len(ov), f.refcnt.at(sid))
		}
	})

	// 2 (slot side) & 3: per-block accounting.
	slotsPerBlock := f.pagesPerBlk * f.slotsPerPage
	for b := 0; b < f.totalBlocks; b++ {
		base := f.slotID(b, 0, 0)
		live := int32(0)
		for s := 0; s < slotsPerBlock; s++ {
			sid := base + int64(s)
			rc := int(f.refcnt.at(sid))
			if rc == 0 {
				if f.rev.at(sid) != -1 {
					report("dead slot %d keeps reverse mapping %d", sid, f.rev.at(sid))
				}
				continue
			}
			live++
			if want := 1 + len(f.revOverflow.get(sid)); rc != want {
				report("slot %d refcnt %d but %d reverse mappings", sid, rc, want)
			}
			if n := refs[sid]; int(n) != rc {
				report("slot %d refcnt %d but %d logical units map to it", sid, rc, n)
			}
			if primary := f.rev.at(sid); primary < 0 || int64(f.l2p.at(int64(primary))) != sid {
				report("slot %d primary reverse mapping %d does not map back", sid, f.rev.at(sid))
			}
		}
		// dftl mode: a live translation page contributes a whole page's worth
		// of valid slots to its block (that is how translation blocks compete
		// in the shared victim index).
		tpSlots := int32(0)
		if f.fm.enabled {
			basePid := int64(b) * int64(f.pagesPerBlk)
			for p := 0; p < f.pagesPerBlk; p++ {
				if f.fm.tpOwner[basePid+int64(p)] >= 0 {
					tpSlots += int32(f.slotsPerPage)
				}
			}
		}
		if f.validCount[b] != live+tpSlots {
			report("block %d validCount %d but %d live slots + %d translation slots", b, f.validCount[b], live, tpSlots)
		}
		if f.written[b] < live+tpSlots {
			report("block %d written %d < %d live slots + %d translation slots", b, f.written[b], live, tpSlots)
		}
		if f.state[b] == blockFree && (live > 0 || tpSlots > 0) {
			report("free block %d holds %d live slots, %d translation slots", b, live, tpSlots)
		}
	}

	// 4: free pool, spare pool and retired blocks.
	freeStates, spareStates, badStates := 0, 0, 0
	for b := 0; b < f.totalBlocks; b++ {
		switch f.state[b] {
		case blockFree:
			freeStates++
		case blockSpare:
			spareStates++
			if f.validCount[b] != 0 || f.written[b] != 0 {
				report("spare block %d has validCount %d written %d", b, f.validCount[b], f.written[b])
			}
		case blockBad:
			badStates++
			if f.validCount[b] != 0 {
				report("retired block %d still holds %d valid slots", b, f.validCount[b])
			}
		}
	}
	inLists := 0
	for _, l := range f.freeByDie {
		for _, b := range l {
			if f.state[b] != blockFree {
				report("free list holds block %d in state %d", b, f.state[b])
			}
		}
		inLists += len(l)
	}
	if f.freeCount != freeStates || f.freeCount != inLists {
		report("free accounting: freeCount %d, %d free states, %d listed", f.freeCount, freeStates, inLists)
	}
	inSpares := 0
	for _, l := range f.spareByDie {
		for _, b := range l {
			if f.state[b] != blockSpare {
				report("spare list holds block %d in state %d", b, f.state[b])
			}
		}
		inSpares += len(l)
	}
	if f.spareCount != spareStates || f.spareCount != inSpares {
		report("spare accounting: spareCount %d, %d spare states, %d listed", f.spareCount, spareStates, inSpares)
	}
	if f.badCount != badStates {
		report("retired accounting: badCount %d but %d blocks in state bad", f.badCount, badStates)
	}
	for _, b := range f.pendingRetire {
		if f.pendingMark[b]&pendRetire == 0 || f.state[b] == blockFree || f.state[b] == blockBad {
			report("pending retirement of block %d inconsistent (mark %d, state %d)", b, f.pendingMark[b], f.state[b])
		}
	}
	for _, b := range f.pendingReclaim {
		if f.pendingMark[b]&pendReclaim == 0 {
			report("pending reclaim of block %d lost its queue mark", b)
		}
	}

	// 5: partial-page markers.
	for s := Stream(0); s < numStreams; s++ {
		want := -1
		for i := range f.fronts[s] {
			if len(f.fronts[s][i].fillLSNs) > 0 {
				if want >= 0 {
					report("stream %d has partial pages on frontiers %d and %d", s, want, i)
				}
				want = i
			}
		}
		if f.partial[s] != want {
			report("stream %d partial marker %d, want %d", s, f.partial[s], want)
		}
	}
	// 6: dftl mode — CMT/LRU/directory consistency and the coherence sweep.
	if f.fm.enabled {
		f.fmCheckInvariants(report)
	}
	// 7: both slot tables' dense indexes agree with their slice pools.
	f.revOverflow.check("reverse overflow", report)
	f.rlog.aliases.check("alias log", report)

	if len(violations) == 0 {
		return nil
	}
	return fmt.Errorf("ftl: invariants violated: %s", strings.Join(violations, "; "))
}
