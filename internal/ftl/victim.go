package ftl

// pick returns the best closed victim under the configured GC policy, or -1
// if no closed block has fewer than maxValid valid slots. It scans the
// blocks in ascending index order and skips the block being collected
// (gcVictim):
//
//   - Greedy takes the fewest valid slots, then the lowest erase count, then
//     the lowest block index.
//   - Cost-benefit and FIFO take the first fully invalid block outright (free
//     space at zero migration cost). Otherwise cost-benefit takes the highest
//     (1-u)/2u × age score, lowest index on ties, and FIFO the oldest close
//     sequence.
func (f *FTL) pick(maxValid int) int {
	best := -1
	bestValid := int32(maxValid)
	var bestWear uint32
	var bestScore float64
	var bestSeq int64
	slotsPerBlock := int32(f.pagesPerBlk * f.slotsPerPage)
	for b := 0; b < f.totalBlocks; b++ {
		if f.state[b] != blockClosed || b == f.gcVictim {
			continue
		}
		v := f.validCount[b]
		if v >= int32(maxValid) {
			continue
		}
		switch f.cfg.GCPolicy {
		case GCCostBenefit:
			if v == 0 {
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
			// The valid count decides before the erase count is read: most
			// closed blocks lose on it, and the wear lookup is the costly part.
			if v > bestValid {
				continue
			}
			w := f.array.EraseCount(b)
			if best < 0 || v < bestValid || w < bestWear {
				best, bestValid, bestWear = b, v, w
			}
		}
	}
	return best
}

// cheapValid is the background-GC threshold: BackgroundGC collects only
// blocks with fewer valid slots than this (a quarter of a block).
func (f *FTL) cheapValid() int { return f.pagesPerBlk * f.slotsPerPage / 4 }

// HasCheapVictim reports whether background GC would find a cheap victim:
// a closed block, not the one being collected, with fewer than cheapValid
// valid slots. The deallocator probes it on every idle tick; the scan stops
// at the first such block.
func (f *FTL) HasCheapVictim() bool {
	cheap := int32(f.cheapValid())
	for b := 0; b < f.totalBlocks; b++ {
		if f.state[b] == blockClosed && f.validCount[b] < cheap && b != f.gcVictim {
			return true
		}
	}
	return false
}
