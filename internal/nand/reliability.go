// NAND reliability model: per-page bit-error sampling for reads, programs
// and erases, with wear-dependent rate scaling. The model is deliberately
// split from the mechanics in nand.go — when every rate is zero the model is
// nil and no code path here runs, so a reliability-disabled array behaves
// (and costs) byte-for-byte like one built before the model existed.
//
// Error *injection* lives here; error *recovery* (read-retry ladders,
// frontier relocation, bad-block retirement) lives in the FTL, which owns
// the mapping the recovery must preserve.
package nand

import "fmt"

// ReliabilityConfig sets the per-operation fault rates. All probabilities
// are per operation on a pristine (erase count 0) block; the effective rate
// of each fault on block b is rate × (1 + WearFactor × EraseCount(b)), so
// worn blocks fail more, which is what drives retirement traffic toward the
// blocks GC and wear-leveling churn hardest.
type ReliabilityConfig struct {
	// ReadRetryRate is the probability a page read needs at least one
	// voltage-shift retry before ECC converges (correctable — latency only).
	ReadRetryRate float64
	// RetryEscalation is the geometric continuation probability that a
	// correctable read needs one more retry step after the previous one.
	RetryEscalation float64
	// UncorrectableRate is the probability a page read exhausts the
	// hard-decision retry ladder and needs a soft-decision decode.
	UncorrectableRate float64
	// ProgramFailRate is the probability a page program reports status FAIL.
	ProgramFailRate float64
	// EraseFailRate is the probability a block erase reports status FAIL.
	EraseFailRate float64
	// WearFactor scales every rate linearly with the block's erase count.
	WearFactor float64
}

// Enabled reports whether any fault can ever fire. A config with all rates
// zero is equivalent to no model at all, and callers normalize it to nil.
func (c ReliabilityConfig) Enabled() bool {
	return c.ReadRetryRate > 0 || c.UncorrectableRate > 0 ||
		c.ProgramFailRate > 0 || c.EraseFailRate > 0
}

// Validate reports a descriptive error for out-of-range rates.
func (c ReliabilityConfig) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"ReadRetryRate", c.ReadRetryRate}, {"RetryEscalation", c.RetryEscalation},
		{"UncorrectableRate", c.UncorrectableRate},
		{"ProgramFailRate", c.ProgramFailRate}, {"EraseFailRate", c.EraseFailRate},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("nand: reliability %s = %v, must be in [0,1]", p.name, p.v)
		}
	}
	if c.WearFactor < 0 {
		return fmt.Errorf("nand: reliability WearFactor = %v, must be >= 0", c.WearFactor)
	}
	return nil
}

// maxRetrySteps bounds a single correctable read's voltage-shift ladder at
// the model level; the FTL additionally clamps to its configured budget.
const maxRetrySteps = 8

// relModel is the sampling state. It carries its own splitmix64 PRNG rather
// than *sim.RNG so the stream position is a single uint64 that Fork
// copies exactly — forked runs replay the identical fault schedule.
type relModel struct {
	cfg ReliabilityConfig
	rng uint64
}

// splitmix64 is the standard 64-bit mixer; one step advances the state.
func (m *relModel) next() uint64 {
	m.rng += 0x9e3779b97f4a7c15
	z := m.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0,1).
func (m *relModel) float() float64 {
	return float64(m.next()>>11) / (1 << 53)
}

// wear returns the rate multiplier for block b.
func (m *relModel) wear(ec uint32) float64 {
	// float64(…) rounds the product: no architecture may fuse the
	// multiply-add, so results are bit-identical on every GOARCH
	return 1 + float64(m.cfg.WearFactor*float64(ec))
}

// EnableReliability installs the fault model. A config with all rates zero
// installs nothing, preserving the exact behavior of an unmodeled array.
// seed positions the model's private PRNG stream; callers derive it from the
// simulation seed so runs stay reproducible.
func (a *Array) EnableReliability(cfg ReliabilityConfig, seed uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !cfg.Enabled() {
		a.rel = nil
		return nil
	}
	a.rel = &relModel{cfg: cfg, rng: seed}
	return nil
}

// SampleRead draws the fault outcome for one page read of block: steps is
// the number of voltage-shift retry reads needed after the initial read
// (0 = clean first read), and uncorrectable means the hard-decision ladder
// is exhausted and a soft-decision decode is required. Data is always
// recoverable — the model adds latency and wear, never loses bits — which
// is what lets the FTL keep its mapping contract under read faults.
func (a *Array) SampleRead(block int) (steps int, uncorrectable bool) {
	m := a.rel
	if m == nil {
		return 0, false
	}
	w := m.wear(a.blocks[block].eraseCount)
	r := m.float()
	// float64(…) rounds each product, so pu+… below cannot fuse
	pu := float64(m.cfg.UncorrectableRate * w)
	if r < pu {
		a.stats.UncorrectableReads++
		return 0, true
	}
	if r < pu+float64(m.cfg.ReadRetryRate*w) {
		steps = 1
		for steps < maxRetrySteps && m.float() < m.cfg.RetryEscalation {
			steps++
		}
		a.stats.ReadRetries += uint64(steps)
		return steps, false
	}
	return 0, false
}

// SampleProgramFail draws whether the next page program of block reports
// status FAIL. The FTL calls it before each program attempt and, on true,
// charges the failed attempt and relocates the page buffer.
func (a *Array) SampleProgramFail(block int) bool {
	m := a.rel
	if m == nil {
		return false
	}
	return m.float() < m.cfg.ProgramFailRate*m.wear(a.blocks[block].eraseCount)
}

// SampleEraseFail draws whether an erase of block reports status FAIL.
func (a *Array) SampleEraseFail(block int) bool {
	m := a.rel
	if m == nil {
		return false
	}
	return m.float() < m.cfg.EraseFailRate*m.wear(a.blocks[block].eraseCount)
}

// ProgramFailedAttempt charges the cost of a page program that reported
// status FAIL: the data crossed the bus and the die spent tPROG before the
// status read, and the ruined page is consumed — flash cannot retry a
// program in place, so the block's program frontier advances past it.
func (a *Array) ProgramFailedAttempt(block, nbytes int) {
	a.checkAddr(block, 0)
	bs := &a.blocks[block]
	if bs.nextPage >= a.geo.PagesPerBlock {
		panic(fmt.Sprintf("nand: failed program past end of block %d", block))
	}
	bs.nextPage++
	bs.erased = false
	a.stats.ProgramFails++
	a.programReserve(block, a.clampBytes(nbytes))
}

// EraseFailedAttempt charges the cost of a block erase that reported status
// FAIL: the die spent tBERS (and the block took the P/E stress) but the
// block did not reach the erased state, so it cannot be programmed again.
func (a *Array) EraseFailedAttempt(block int) {
	a.checkAddr(block, 0)
	bs := &a.blocks[block]
	bs.eraseCount++
	bs.everErased = true
	a.stats.EraseFails++
	a.eraseReserve(block)
}
