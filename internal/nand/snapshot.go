package nand

import (
	"fmt"
	"slices"
)

// CopyFrom makes a's mutable state — per-block lifecycle, die/channel busy
// horizons, counters and the fault model's PRNG position — a deep copy of
// src's. Both arrays must share geometry and timing; a keeps its kernel.
// The array has no in-flight continuations of its own (an operation books
// its busy horizons at issue and returns its completion instant), so src
// may be copied at any instant. src is only read.
func (a *Array) CopyFrom(src *Array) error {
	if a.geo != src.geo || a.tim != src.tim {
		return fmt.Errorf("nand: copy between arrays of different geometry or timing")
	}
	eng := a.eng
	*a = *src
	a.eng = eng
	a.dies = slices.Clone(src.dies)
	a.channels = slices.Clone(src.channels)
	a.blocks = slices.Clone(src.blocks)
	if src.rel != nil {
		rel := *src.rel
		a.rel = &rel
	}
	return nil
}
