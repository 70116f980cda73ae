package harness

import (
	"maps"
	"reflect"
	"slices"
	"testing"
)

// claimsOpts is the scale the vacuity check reads cells at.
var claimsOpts = Opts{Scale: 0.3, Threads: []int{4, 32}}

// fewCheckpoints lists the checkpoint-dependent cells that complete fewer
// than two checkpoints in their window at claimsOpts today: every cell of
// fig9 but one, all but two of fig11's, fig8a's two longest intervals and
// fig12's.
var fewCheckpoints = []string{
	"ablation/Baseline (host copy)", "ablation/Baseline, no data cache",
	"ablation/ISC-B (device copy)",
	"compaction/journal/Check-In",
	"compare/Baseline", "compare/Check-In", "compare/ISC-A", "compare/ISC-B",
	"compare/ISC-C",
	"fig11/Baseline/A/32T", "fig11/Baseline/A/4T", "fig11/Baseline/F/32T",
	"fig11/Baseline/F/4T", "fig11/Baseline/WO/4T", "fig11/Check-In/A/32T",
	"fig11/Check-In/A/4T", "fig11/Check-In/F/32T", "fig11/Check-In/F/4T",
	"fig11/Check-In/WO/32T", "fig11/Check-In/WO/4T", "fig11/ISC-A/A/32T",
	"fig11/ISC-A/A/4T", "fig11/ISC-A/F/32T", "fig11/ISC-A/F/4T",
	"fig11/ISC-A/WO/32T", "fig11/ISC-A/WO/4T", "fig11/ISC-B/A/32T",
	"fig11/ISC-B/A/4T", "fig11/ISC-B/F/32T", "fig11/ISC-B/F/4T",
	"fig11/ISC-B/WO/4T", "fig11/ISC-C/A/32T", "fig11/ISC-C/A/4T",
	"fig11/ISC-C/F/32T", "fig11/ISC-C/F/4T", "fig11/ISC-C/WO/32T",
	"fig11/ISC-C/WO/4T",
	"fig12/1.6s/Baseline", "fig12/1.6s/Check-In", "fig12/800ms/Baseline",
	"fig12/800ms/Check-In",
	"fig13a/1024B/Check-In", "fig13a/1024B/ISC-C", "fig13a/2048B/Check-In",
	"fig13a/2048B/ISC-C", "fig13a/4096B/Check-In", "fig13a/4096B/ISC-C",
	"fig13a/512B/Check-In",
	"fig3c/baseline",
	"fig8a/1.2s/Baseline", "fig8a/1.2s/Check-In", "fig8a/1.2s/ISC-C",
	"fig8a/600ms/Baseline", "fig8a/600ms/Check-In", "fig8a/600ms/ISC-C",
	"fig8b/9000/Baseline", "fig8b/9000/Check-In",
	"fig9/uniform/Check-In", "fig9/uniform/ISC-A", "fig9/uniform/ISC-B",
	"fig9/uniform/ISC-C", "fig9/zipfian/Baseline", "fig9/zipfian/Check-In",
	"fig9/zipfian/ISC-A", "fig9/zipfian/ISC-B", "fig9/zipfian/ISC-C",
	"recovery/Baseline", "recovery/Check-In", "recovery/ISC-A",
	"recovery/ISC-B", "recovery/ISC-C",
}

// idleLevers lists the lever cells whose Metrics equal their reference
// cell's on every field at claimsOpts today. No GC-policy decision lands
// in the ablation's window, and ISC-A and ISC-B equal Baseline wherever
// no checkpoint lands.
var idleLevers = []string{
	"ablation/Check-In, GC cost-benefit", "ablation/Check-In, GC fifo",
	"fig11/ISC-A/A/32T", "fig11/ISC-A/A/4T", "fig11/ISC-A/F/32T",
	"fig11/ISC-A/F/4T", "fig11/ISC-B/A/32T", "fig11/ISC-B/A/4T",
	"fig11/ISC-B/F/32T", "fig11/ISC-B/F/4T",
}

// TestNoVacuousCells reads every experiment's cells, never its rendered
// strings, and finds the cells whose claim cannot show: a cell whose claim
// depends on checkpoints but that completes fewer than two in its window,
// and a lever row whose Metrics equal its reference's on every field. The
// found sets must equal fewCheckpoints and idleLevers exactly, so a cell
// that turns vacuous fails the test, and so does a listed cell that turns
// live until it leaves the list.
func TestNoVacuousCells(t *testing.T) {
	if testing.Short() {
		t.Skip("claims-scale sweep in -short mode")
	}
	// sets: fig11a and fig11b declare the same cells
	few, idle := map[string]bool{}, map[string]bool{}
	for _, exp := range Experiments() {
		if exp.Cells == nil {
			continue
		}
		_, cells, err := Run(exp, claimsOpts)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		byName := map[string]Cell{}
		for _, c := range cells {
			byName[c.Name] = c
		}
		for _, c := range cells {
			if c.Ckpt && c.Metrics.Checkpoints() < 2 {
				few[c.Name] = true
			}
			if c.Role == Lever {
				ref, ok := byName[c.Ref]
				if !ok {
					t.Fatalf("%s: lever %s names unknown reference %q", exp.ID, c.Name, c.Ref)
				}
				if reflect.DeepEqual(*c.Metrics, *ref.Metrics) {
					idle[c.Name] = true
				}
			}
		}
	}
	check := func(what string, got map[string]bool, want []string) {
		t.Helper()
		for _, n := range slices.Sorted(maps.Keys(got)) {
			if !slices.Contains(want, n) {
				t.Errorf("%s: %s (not expected)", what, n)
			}
		}
		for _, n := range want {
			if !got[n] {
				t.Errorf("%s: %s is expected but now live; remove it from the list", what, n)
			}
		}
	}
	check("fewer than 2 checkpoints in the window", few, fewCheckpoints)
	check("lever equals its reference", idle, idleLevers)
}
