package ftl

import (
	"fmt"
	"math/bits"
)

// victimIndex is the incrementally maintained GC victim structure: every
// closed block is linked into an intrusive doubly-linked bucket keyed by its
// current valid-slot count. Membership maintenance is O(1) per transition
// (close, per-slot invalidation, collection), replacing the O(totalBlocks)
// scan pickVictim used to run per victim — and per idle-tick existence probe.
//
// Within a bucket, selection needs the bucket's "best" member under a
// policy-dependent total order (see better). Rather than keeping buckets
// sorted — which would make the per-invalidation relink O(bucket) — each
// bucket carries a lazily rebalanced best cache: inserts update it with one
// comparison, removing the cached best merely marks the cache dirty, and the
// next selection touching that bucket rebuilds it with a single walk. The
// cache is therefore always either exact or absent, so selection results are
// a pure function of the index *contents*, never of the operation history —
// the property that lets Restore rebuild the index from restored block state
// and still reproduce byte-identical victim sequences.
//
// A bitmap over buckets (one bit per valid count) locates the lowest
// non-empty bucket and iterates non-empty buckets without touching empty
// ones, and cheapCount counts members below the background-GC threshold so
// the deallocator's HasCheapVictim probe is O(1).
//
// Equivalence with the linear scan (pickVictimScan, a test-only reference
// in victim_test.go) is argued per-policy in pick and enforced by
// TestVictimIndexOracle.
type victimIndex struct {
	policy GCPolicy

	next   []int32 // intrusive links per block; -1 terminates
	prev   []int32
	linked []bool
	bucket []int32 // valid count at link time; -1 when unlinked

	heads  []int32  // bucket head per valid count (0..slotsPerBlock)
	counts []int32  // members per bucket
	best   []int32  // cached best member: block id, or vixEmpty / vixDirty
	words  []uint64 // bit v set ⇔ bucket v non-empty

	cheapMax   int32 // background-GC valid-count threshold (slots/block / 4)
	cheapCount int   // members with validCount < cheapMax

	// Relinks are batched: a slot invalidation only marks its block pending
	// (hot data concentrates many invalidations on few blocks between two
	// selections), and vixFlush re-buckets each pending block once before
	// any read of the index. Between flushes bucket/cheapCount may lag
	// validCount; every selection path flushes first, so selection results
	// are identical to eager relinking.
	pending  []int32
	pendingM []bool
}

const (
	vixEmpty = int32(-1) // bucket has no members
	vixDirty = int32(-2) // bucket non-empty but cached best was removed
)

func newVictimIndex(policy GCPolicy, totalBlocks, slotsPerBlock int) *victimIndex {
	vx := &victimIndex{
		policy: policy,
		next:   make([]int32, totalBlocks),
		prev:   make([]int32, totalBlocks),
		linked: make([]bool, totalBlocks),
		bucket: make([]int32, totalBlocks),

		heads:  make([]int32, slotsPerBlock+1),
		counts: make([]int32, slotsPerBlock+1),
		best:   make([]int32, slotsPerBlock+1),
		words:  make([]uint64, (slotsPerBlock+1+63)/64),

		cheapMax: int32(slotsPerBlock / 4),
		pendingM: make([]bool, totalBlocks),
	}
	for i := range vx.heads {
		vx.heads[i] = -1
		vx.best[i] = vixEmpty
	}
	for i := range vx.bucket {
		vx.bucket[i] = -1
	}
	return vx
}

// reset empties the index in place (Restore rebuilds it afterwards).
func (vx *victimIndex) reset() {
	for i := range vx.heads {
		vx.heads[i] = -1
		vx.counts[i] = 0
		vx.best[i] = vixEmpty
	}
	for i := range vx.words {
		vx.words[i] = 0
	}
	for i := range vx.bucket {
		vx.bucket[i] = -1
		vx.linked[i] = false
		vx.pendingM[i] = false
	}
	vx.pending = vx.pending[:0]
	vx.cheapCount = 0
}

// better reports whether block a beats block b for selection inside bucket
// v, under the configured policy. Each order is total (erase counts break
// ties on block index; close sequence numbers and block indices are unique),
// so the bucket best is unique and independent of link order.
func (f *FTL) better(a, b int32, v int) bool {
	switch f.vix.policy {
	case GCCostBenefit, GCFIFO:
		if v == 0 {
			// both policies early-return the first fully-invalid block the
			// ascending-index scan meets: lowest block index wins
			return a < b
		}
		// cost-benefit: within a bucket the reclaim factor is fixed, so the
		// oldest block (max age ⇔ min close seq) scores highest; FIFO picks
		// the oldest closed block outright
		return f.closedSeq[a] < f.closedSeq[b]
	default: // GCGreedy
		wa, wb := f.array.EraseCount(int(a)), f.array.EraseCount(int(b))
		if wa != wb {
			return wa < wb
		}
		return a < b
	}
}

// vixInsert links a freshly closed (or restored) block into bucket v.
func (f *FTL) vixInsert(b, v int) {
	vx := f.vix
	if vx.linked[b] {
		panic(fmt.Sprintf("ftl: victim index double-insert of block %d", b))
	}
	b32 := int32(b)
	head := vx.heads[v]
	vx.next[b] = head
	vx.prev[b] = -1
	if head >= 0 {
		vx.prev[head] = b32
	}
	vx.heads[v] = b32
	vx.linked[b] = true
	vx.bucket[b] = int32(v)
	vx.counts[v]++
	vx.words[v/64] |= 1 << (v % 64)
	if int32(v) < vx.cheapMax {
		vx.cheapCount++
	}
	switch best := vx.best[v]; {
	case best == vixEmpty:
		vx.best[v] = b32
	case best == vixDirty:
		// stays dirty: the true best is unknown either way
	case f.better(b32, best, v):
		vx.best[v] = b32
	}
}

// vixRemove unlinks a block (it is being collected, or re-bucketed).
func (f *FTL) vixRemove(b int) {
	vx := f.vix
	if !vx.linked[b] {
		panic(fmt.Sprintf("ftl: victim index removing unlinked block %d", b))
	}
	v := int(vx.bucket[b])
	n, p := vx.next[b], vx.prev[b]
	if p >= 0 {
		vx.next[p] = n
	} else {
		vx.heads[v] = n
	}
	if n >= 0 {
		vx.prev[n] = p
	}
	vx.linked[b] = false
	vx.bucket[b] = -1
	vx.counts[v]--
	if int32(v) < vx.cheapMax {
		vx.cheapCount--
	}
	if vx.counts[v] == 0 {
		vx.words[v/64] &^= 1 << (v % 64)
		vx.best[v] = vixEmpty
	} else if vx.best[v] == int32(b) {
		vx.best[v] = vixDirty
	}
}

// vixMarkDirty records that b's valid count changed — down after a slot
// invalidation, up in the rare case a slot was appended to a block that
// filled (and closed) before its bind landed. The re-bucketing itself is
// deferred to vixFlush.
func (f *FTL) vixMarkDirty(b int) {
	vx := f.vix
	if !vx.pendingM[b] {
		vx.pendingM[b] = true
		vx.pending = append(vx.pending, int32(b))
	}
}

// vixFlush re-buckets every pending block, restoring the bucket ==
// validCount invariant the selection paths rely on. A pending block that
// was collected (unlinked) in the meantime just has its mark dropped.
func (f *FTL) vixFlush() {
	vx := f.vix
	for _, b := range vx.pending {
		vx.pendingM[b] = false
		if vx.linked[b] && vx.bucket[b] != f.validCount[b] {
			f.vixRemove(int(b))
			f.vixInsert(int(b), int(f.validCount[b]))
		}
	}
	vx.pending = vx.pending[:0]
}

// bestOf returns bucket v's best member, rebuilding the lazy cache with one
// bucket walk if the previous best was removed. Bucket v must be non-empty.
func (f *FTL) bestOf(v int) int32 {
	vx := f.vix
	best := vx.best[v]
	if best >= 0 {
		return best
	}
	for b := vx.heads[v]; b >= 0; b = vx.next[b] {
		if best < 0 || f.better(b, best, v) {
			best = b
		}
	}
	vx.best[v] = best
	return best
}

// lowestBucket returns the smallest non-empty bucket < limit, or -1.
func (vx *victimIndex) lowestBucket(limit int) int {
	if limit > len(vx.heads) {
		limit = len(vx.heads)
	}
	for w := 0; w*64 < limit; w++ {
		word := vx.words[w]
		if word == 0 {
			continue
		}
		v := w*64 + bits.TrailingZeros64(word)
		if v >= limit {
			return -1
		}
		return v
	}
	return -1
}

// pick returns the victim the linear scan would return, using the index.
// maxValid bounds the victim's valid count (exclusive), as in pickVictimScan.
func (f *FTL) pick(maxValid int) int {
	f.vixFlush()
	vx := f.vix
	low := vx.lowestBucket(maxValid)
	if low < 0 {
		return -1
	}
	switch vx.policy {
	case GCCostBenefit:
		if low == 0 {
			// the scan early-returns the first fully-invalid block
			return int(f.bestOf(0))
		}
		// Only per-bucket bests can win: within a bucket the score is
		// strictly decreasing in close seq, so every non-best member scores
		// strictly below its bucket's best and can neither win nor tie the
		// global maximum. Ties *between* buckets fall to the lower block
		// index, exactly as the ascending-index scan's strict > keeps the
		// first-encountered block.
		slotsPerBlock := int32(f.pagesPerBlk * f.slotsPerPage)
		best := -1
		var bestScore float64
		f.eachBucket(low, maxValid, func(v int) {
			b := f.bestOf(v)
			age := float64(f.closeClock - f.closedSeq[b] + 1)
			score := float64(slotsPerBlock-int32(v)) / float64(2*int32(v)) * age
			if best < 0 || score > bestScore || (score == bestScore && int(b) < best) {
				best, bestScore = int(b), score
			}
		})
		return best
	case GCFIFO:
		if low == 0 {
			return int(f.bestOf(0))
		}
		// oldest close seq among qualifying buckets; seqs are unique
		best := int32(-1)
		f.eachBucket(low, maxValid, func(v int) {
			b := f.bestOf(v)
			if best < 0 || f.closedSeq[b] < f.closedSeq[best] {
				best = b
			}
		})
		return int(best)
	default: // GCGreedy
		// the scan minimizes (valid, wear, index) lexicographically: the
		// lowest non-empty bucket pins valid, its best pins (wear, index)
		return int(f.bestOf(low))
	}
}

// eachBucket invokes fn for every non-empty bucket in [from, limit).
func (f *FTL) eachBucket(from, limit int, fn func(v int)) {
	vx := f.vix
	if limit > len(vx.heads) {
		limit = len(vx.heads)
	}
	for w := from / 64; w*64 < limit; w++ {
		word := vx.words[w]
		if w == from/64 {
			word &^= (1 << (from % 64)) - 1
		}
		for word != 0 {
			v := w*64 + bits.TrailingZeros64(word)
			if v >= limit {
				return
			}
			fn(v)
			word &= word - 1
		}
	}
}

// rebuildVictimIndex reconstructs the index from block state — used by New
// and Restore. The index is a pure function of (state, validCount), so a
// rebuilt index yields the same victim sequence as an incrementally
// maintained one.
func (f *FTL) rebuildVictimIndex() {
	f.vix.reset()
	for b := 0; b < f.totalBlocks; b++ {
		if f.state[b] == blockClosed {
			f.vixInsert(b, int(f.validCount[b]))
		}
	}
}

// checkVictimIndex cross-checks the index against block state and valid
// counts; CheckInvariants calls it. gcVictim is the block currently being
// collected (detached from the index mid-collection), or -1.
func (f *FTL) checkVictimIndex(report func(format string, args ...any)) {
	// Flush pending relinks first: re-bucketing only moves the cache to its
	// canonical form (no observable FTL state changes), and the structural
	// checks below assume bucket == validCount.
	f.vixFlush()
	vx := f.vix
	seen := 0
	cheap := 0
	for v := range vx.heads {
		members := int32(0)
		prev := int32(-1)
		for b := vx.heads[v]; b >= 0; b = vx.next[b] {
			if vx.prev[b] != prev {
				report("victim index: block %d in bucket %d has prev %d, want %d", b, v, vx.prev[b], prev)
			}
			if !vx.linked[b] || int(vx.bucket[b]) != v {
				report("victim index: block %d linked in bucket %d but tagged (linked=%v bucket=%d)",
					b, v, vx.linked[b], vx.bucket[b])
			}
			if f.state[b] != blockClosed {
				report("victim index: block %d in bucket %d is not closed (state %d)", b, v, f.state[b])
			}
			if int(f.validCount[b]) != v {
				report("victim index: block %d in bucket %d but validCount %d", b, v, f.validCount[b])
			}
			members++
			seen++
			if int32(v) < vx.cheapMax {
				cheap++
			}
			prev = b
		}
		if members != vx.counts[v] {
			report("victim index: bucket %d count %d but %d linked members", v, vx.counts[v], members)
		}
		hasBit := vx.words[v/64]&(1<<(v%64)) != 0
		if hasBit != (members > 0) {
			report("victim index: bucket %d bitmap bit %v with %d members", v, hasBit, members)
		}
		if best := vx.best[v]; best >= 0 {
			if !vx.linked[best] || int(vx.bucket[best]) != v {
				report("victim index: bucket %d cached best %d is not a member", v, best)
			} else {
				want := vixDirty
				for b := vx.heads[v]; b >= 0; b = vx.next[b] {
					if want < 0 || f.better(b, want, v) {
						want = b
					}
				}
				if best != want {
					report("victim index: bucket %d cached best %d, true best %d", v, best, want)
				}
			}
		} else if best == vixEmpty && members > 0 {
			report("victim index: bucket %d marked empty with %d members", v, members)
		}
	}
	closed := 0
	for b := 0; b < f.totalBlocks; b++ {
		if f.state[b] != blockClosed {
			if vx.linked[b] {
				report("victim index: non-closed block %d is linked", b)
			}
			continue
		}
		closed++
		if !vx.linked[b] && b != f.gcVictim {
			report("victim index: closed block %d not linked (gcVictim %d)", b, f.gcVictim)
		}
	}
	if f.gcVictim >= 0 && f.state[f.gcVictim] == blockClosed {
		closed-- // mid-collection victim is legitimately detached
	}
	if seen != closed {
		report("victim index: %d linked blocks but %d indexable closed blocks", seen, closed)
	}
	if cheap != vx.cheapCount {
		report("victim index: cheapCount %d but %d members below threshold %d", vx.cheapCount, cheap, vx.cheapMax)
	}
}
