package nand

import (
	"slices"

	"github.com/checkin-kv/checkin/internal/sim"
)

// Fork returns a new array on eng whose state — per-block lifecycle,
// die/channel busy horizons, counters and the fault model's PRNG position
// — is a deep copy of src's, with src's geometry and timing. The array has
// no in-flight continuations of its own (an operation books its busy
// horizons at issue and returns its completion instant), so src may be
// forked at any instant. src is only read.
func Fork(eng *sim.Engine, src *Array) *Array {
	a := new(Array)
	*a = *src
	a.eng = eng
	a.dies = slices.Clone(src.dies)
	a.channels = slices.Clone(src.channels)
	a.blocks = slices.Clone(src.blocks)
	if src.rel != nil {
		rel := *src.rel
		a.rel = &rel
	}
	return a
}
