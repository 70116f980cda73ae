package ftl

import "slices"

// Trims returns a copy of the recovery log's trim extents, oldest first.
func (f *FTL) Trims() []trimExtent { return slices.Clone(f.rlog.trims) }

// VerifySPORWith is VerifySPOR over the trim extents trims in place of the
// recorded ones.
func (f *FTL) VerifySPORWith(trims []trimExtent) *SPORReport {
	kept := f.rlog.trims
	f.rlog.trims = trims
	defer func() { f.rlog.trims = kept }()
	return f.VerifySPOR()
}
