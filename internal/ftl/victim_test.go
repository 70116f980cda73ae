package ftl

import (
	"fmt"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// oracleWorkload drives a deterministic mix of skewed overwrites, trims and
// remaps with periodic syncs, background GC and forced collections, and
// checks every invariant every 256 rounds. The DFTL oracle tests run it
// with their own oracles armed.
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
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Sync(StreamData, TagHostData)
	e.Run()
}

// closedBlock is a hand-set block state for the selection tests.
type closedBlock struct {
	b     int
	valid int32
	seq   int64 // close sequence; the FTL's close clock is set to the largest
	wear  int   // erase count
}

// setClosed marks each block closed with its valid count, close sequence
// and erase count. Every other block of the fresh FTL stays free.
func setClosed(f *FTL, blocks []closedBlock) {
	for _, c := range blocks {
		f.state[c.b] = blockClosed
		f.validCount[c.b] = c.valid
		f.closedSeq[c.b] = c.seq
		f.closeClock = max(f.closeClock, c.seq)
		for i := 0; i < c.wear; i++ {
			f.array.EraseBlock(c.b)
		}
	}
}

// TestPickRules pins each GC policy's selection rule and tie-breaks on
// hand-set block states (32 slots per block). Every case is built so that
// flipping one comparison picks a different block.
func TestPickRules(t *testing.T) {
	const all = 1 << 30
	for _, tc := range []struct {
		name     string
		policy   GCPolicy
		maxValid int
		blocks   []closedBlock
		want     int
	}{
		// greedy: fewest valid slots, then lowest erase count, then lowest index
		{"greedy/valid-before-wear", GCGreedy, all,
			[]closedBlock{{b: 2, valid: 5, seq: 1, wear: 3}, {b: 5, valid: 6, seq: 2}}, 2},
		{"greedy/wear-breaks-valid-tie", GCGreedy, all,
			[]closedBlock{{b: 2, valid: 5, seq: 1, wear: 3}, {b: 5, valid: 5, seq: 2, wear: 1}, {b: 9, valid: 5, seq: 3, wear: 2}}, 5},
		{"greedy/index-breaks-wear-tie", GCGreedy, all,
			[]closedBlock{{b: 3, valid: 5, seq: 1, wear: 1}, {b: 7, valid: 5, seq: 2, wear: 1}, {b: 11, valid: 6, seq: 3}}, 3},
		{"greedy/zero-valid-by-count", GCGreedy, all,
			[]closedBlock{{b: 1, valid: 4, seq: 1}, {b: 4, valid: 0, seq: 2, wear: 2}, {b: 8, valid: 0, seq: 3, wear: 1}}, 8},

		// cost-benefit and FIFO: a fully invalid block wins first, lowest index
		{"cost-benefit/zero-valid-first", GCCostBenefit, all,
			[]closedBlock{{b: 2, valid: 3, seq: 1}, {b: 5, valid: 0, seq: 4}, {b: 7, valid: 0, seq: 2}}, 5},
		{"fifo/zero-valid-first", GCFIFO, all,
			[]closedBlock{{b: 2, valid: 3, seq: 1}, {b: 5, valid: 0, seq: 4}, {b: 7, valid: 0, seq: 2}}, 5},

		// cost-benefit: highest (32-v)/2v × age score, age = clock-seq+1
		// (scores 10.5, 5 and 7.5: neither the oldest nor the emptiest wins)
		{"cost-benefit/highest-score", GCCostBenefit, all,
			[]closedBlock{{b: 1, valid: 4, seq: 8}, {b: 2, valid: 16, seq: 1}, {b: 3, valid: 8, seq: 6}, {b: 4, valid: 2, seq: 10}}, 1},
		// scores 3, 3, 1.5 and 0.02: the tie falls to the lower index
		{"cost-benefit/index-breaks-score-tie", GCCostBenefit, all,
			[]closedBlock{{b: 3, valid: 8, seq: 9}, {b: 8, valid: 16, seq: 5}, {b: 12, valid: 16, seq: 8}, {b: 13, valid: 31, seq: 10}}, 3},

		// FIFO: the oldest close sequence, whatever the valid counts
		{"fifo/oldest", GCFIFO, all,
			[]closedBlock{{b: 1, valid: 10, seq: 5}, {b: 3, valid: 20, seq: 2}, {b: 6, valid: 4, seq: 7}}, 3},

		// maxValid is exclusive
		{"greedy/cutoff-excludes", GCGreedy, 5,
			[]closedBlock{{b: 1, valid: 5, seq: 1}, {b: 2, valid: 7, seq: 2}}, -1},
		{"greedy/cutoff-admits", GCGreedy, 6,
			[]closedBlock{{b: 1, valid: 5, seq: 1}, {b: 2, valid: 7, seq: 2}}, 1},
		{"fifo/cutoff", GCFIFO, 5,
			[]closedBlock{{b: 1, valid: 5, seq: 1}, {b: 4, valid: 4, seq: 3}, {b: 6, valid: 3, seq: 4}}, 4},
		{"cost-benefit/cutoff", GCCostBenefit, 8,
			[]closedBlock{{b: 1, valid: 8, seq: 1}, {b: 4, valid: 7, seq: 9}, {b: 6, valid: 30, seq: 2}}, 4},
		{"fifo/none-closed", GCFIFO, all, nil, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.GCPolicy = tc.policy
			_, f := newSmall(t, cfg)
			setClosed(f, tc.blocks)
			if got := f.pick(tc.maxValid); got != tc.want {
				t.Fatalf("pick(%d) = %d, want %d", tc.maxValid, got, tc.want)
			}
			if tc.want < 0 {
				return
			}
			// The block under collection is never picked again.
			f.gcVictim = tc.want
			if got := f.pick(tc.maxValid); got == tc.want {
				t.Fatalf("pick(%d) = %d, the block under collection", tc.maxValid, got)
			}
		})
	}
}

// TestHasCheapVictim: background GC's probe asks for a closed block with
// fewer than a quarter of its 32 slots valid, and ignores free blocks and
// the block under collection.
func TestHasCheapVictim(t *testing.T) {
	_, f := newSmall(t, smallCfg())
	if f.HasCheapVictim() {
		t.Fatal("cheap victim on a device with no closed block")
	}
	setClosed(f, []closedBlock{{b: 3, valid: 8, seq: 1}, {b: 6, valid: 20, seq: 2}})
	if f.HasCheapVictim() || f.BackgroundGC(1) != 0 {
		t.Fatal("8 valid of 32 counts as cheap")
	}
	setClosed(f, []closedBlock{{b: 9, valid: 7, seq: 3}})
	if !f.HasCheapVictim() {
		t.Fatal("7 valid of 32 not counted as cheap")
	}
	f.gcVictim = 9
	if f.HasCheapVictim() {
		t.Fatal("the block under collection counted as a cheap victim")
	}
}

// TestHottestTP: the translation page with the most dirty entries is
// flushed first, the lowest tvpn on ties, and none when nothing is dirty.
func TestHottestTP(t *testing.T) {
	_, f := newSmall(t, smallCfg())
	for _, tc := range []struct {
		dirty []int32
		want  int
	}{
		{[]int32{0, 0, 0, 0}, -1},
		{[]int32{0, 2, 0, 7, 1}, 3},
		{[]int32{0, 5, 2, 5, 0}, 1},
		{[]int32{4, 0, 9, 3, 9, 9}, 2},
	} {
		t.Run(fmt.Sprint(tc.dirty), func(t *testing.T) {
			f.fm.dirtyByTP = tc.dirty
			if got := f.fmHottestTP(); got != tc.want {
				t.Fatalf("fmHottestTP = %d, want %d", got, tc.want)
			}
		})
	}
}
