package ftl

import (
	"fmt"
	"testing"

	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// pickVictimScan is the linear-scan reference implementation of victim
// selection: ascending block index, first-encountered block wins ties. The
// victim index (victim.go) must match it pick for pick.
func (f *FTL) pickVictimScan(maxValid int) int {
	best := -1
	bestValid := int32(maxValid)
	var bestWear uint32
	var bestScore float64
	var bestSeq int64
	slotsPerBlock := int32(f.pagesPerBlk * f.slotsPerPage)
	for b := 0; b < f.totalBlocks; b++ {
		if f.state[b] != blockClosed {
			continue
		}
		v := f.validCount[b]
		if v >= int32(maxValid) {
			continue
		}
		switch f.cfg.GCPolicy {
		case GCCostBenefit:
			if v == 0 { // free space at zero cost always wins
				return b
			}
			age := float64(f.closeClock - f.closedSeq[b] + 1)
			score := float64(slotsPerBlock-v) / float64(2*v) * age
			if best < 0 || score > bestScore {
				best, bestScore = b, score
			}
		case GCFIFO:
			if v == 0 {
				return b
			}
			if best < 0 || f.closedSeq[b] < bestSeq {
				best, bestSeq = b, f.closedSeq[b]
			}
		default: // GCGreedy
			w := f.array.EraseCount(b)
			if best < 0 || v < bestValid || (v == bestValid && w < bestWear) {
				best, bestValid, bestWear = b, v, w
			}
		}
	}
	return best
}

// crossCheckVictims compares the index-based selection against the retained
// linear-scan reference across the full spread of thresholds callers use
// (foreground 1<<30, background slots/4, plus edge values), and the O(1)
// cheap probe against its scan definition.
func crossCheckVictims(t *testing.T, f *FTL) {
	t.Helper()
	s := f.pagesPerBlk * f.slotsPerPage
	for _, mv := range []int{1, 2, s / 4, s / 2, s, 1 << 30} {
		if got, want := f.pick(mv), f.pickVictimScan(mv); got != want {
			t.Fatalf("maxValid=%d: index picked %d, scan picked %d", mv, got, want)
		}
	}
	if got, want := f.HasCheapVictim(), f.pickVictimScan(s/4) >= 0; got != want {
		t.Fatalf("HasCheapVictim=%v but scan says %v", got, want)
	}
}

// oracleWorkload drives a deterministic mix of skewed overwrites, trims and
// remaps with periodic syncs and background GC. The FTL runs with
// victimOracle armed, so *every* victim selection along the way — foreground,
// background, forced — is verified against the scan reference in pickVictim.
func oracleWorkload(t *testing.T, e *sim.Engine, f *FTL, rng *benchRNG, rounds int) {
	t.Helper()
	unit := int64(f.unit)
	luns := f.logicalBytes / unit
	hot := luns/8 + 1
	for i := 0; i < rounds; i++ {
		r := rng.next()
		switch r % 8 {
		case 0: // trim a small extent (cheap victims for background GC)
			lun := int64(r>>8) % luns
			n := int64(r>>40)%4 + 1
			if lun+n > luns {
				n = luns - lun
			}
			f.Trim(lun*unit, n*unit)
		case 1: // remap across halves (shared slots, overflow churn)
			src := (int64(r>>8) % (luns / 2)) * unit
			dst := (luns/2 + int64(r>>40)%(luns/2)) * unit
			if (r>>16)&3 == 0 {
				// Every fourth remap runs inside a checkpoint-cut batch
				// window (a no-op in dram mode) so the deferred-settle
				// path sees the same churn the interleaved path does.
				f.BeginCheckpointCut()
				f.Remap(src, dst, unit)
				f.EndCheckpointCut()
			} else {
				f.Remap(src, dst, unit)
			}
		default: // 90/10-ish skewed overwrite
			var lun int64
			if r%3 != 0 {
				lun = int64(r>>8) % hot
			} else {
				lun = int64(r>>8) % luns
			}
			f.Write(lun*unit, unit, TagHostData, StreamData)
		}
		if i%64 == 63 {
			f.Sync(StreamData, TagHostData)
			f.Sync(StreamJournal, TagHostJournal)
			e.Run()
			if f.HasCheapVictim() {
				f.BackgroundGC(1)
			}
		}
		if i%256 == 255 {
			f.BackgroundGCForce(1)
			crossCheckVictims(t, f)
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Sync(StreamData, TagHostData)
	e.Run()
}

// TestVictimIndexOracle is the differential test for the tentpole: under
// all three GC policies and three workload seeds, the incrementally
// maintained victim index must return exactly the victim sequence the
// linear scan would have (enforced per-pick by victimOracle), keep every
// structural invariant, and — after a Snapshot/Restore round trip that
// rebuilds the index from block state — keep matching the scan while the
// workload continues on the restored instance.
func TestVictimIndexOracle(t *testing.T) {
	for _, pol := range []GCPolicy{GCGreedy, GCCostBenefit, GCFIFO} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pol, seed), func(t *testing.T) {
				cfg := smallCfg()
				cfg.GCPolicy = pol
				e := sim.NewEngine()
				arr, err := nand.New(e, smallGeo(), fastTim())
				if err != nil {
					t.Fatal(err)
				}
				f, err := New(e, arr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				f.victimOracle = f.pickVictimScan

				rng := benchRNG(0x9e3779b97f4a7c15 ^ uint64(seed)*0xbf58476d1ce4e5b9)
				oracleWorkload(t, e, f, &rng, 2048)
				if f.stats.GCInvocations+f.stats.DeadReclaims == 0 {
					t.Fatal("workload never collected a victim; oracle exercised nothing")
				}
				crossCheckVictims(t, f)

				// Round trip through Snapshot/Restore: the index is not part
				// of FTLState — Restore rebuilds it — so the restored FTL
				// (over the same array) must agree with the scan immediately
				// and for the rest of the workload.
				st, err := f.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				f2, err := New(e, arr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := f2.Restore(st); err != nil {
					t.Fatal(err)
				}
				f2.victimOracle = f2.pickVictimScan
				if err := f2.CheckInvariants(); err != nil {
					t.Fatalf("restored FTL: %v", err)
				}
				crossCheckVictims(t, f2)
				oracleWorkload(t, e, f2, &rng, 1024)
				crossCheckVictims(t, f2)
			})
		}
	}
}

// TestVictimIndexWearLevel covers the remaining collectBlock caller: static
// wear leveling detaches its (scan-chosen) victim from the index too.
func TestVictimIndexWearLevel(t *testing.T) {
	cfg := smallCfg()
	cfg.WearDeltaThreshold = 2
	e, f := newSmall(t, cfg)
	f.victimOracle = f.pickVictimScan
	f.Write(65536, 32768, TagHostData, StreamData)
	f.Sync(StreamData, TagHostData)
	e.Run()
	moves := uint64(0)
	for i := 0; i < 400; i++ {
		f.Write(0, 8192, TagHostData, StreamData)
		e.Run()
		if i%10 == 0 && f.MaybeWearLevel() {
			moves++
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			crossCheckVictims(t, f)
		}
	}
	if moves == 0 {
		t.Fatal("wear leveler never moved a block")
	}
}
