package harness

import (
	"strconv"
	"strings"
	"testing"
)

// TestAblationVariants pins the ablation table's shape and content: one row
// per design lever, in the documented order, with live measurements in every
// numeric column. The generic experiment sweep only checks non-emptiness;
// this keeps the variant list itself honest (dropping a lever or reordering
// rows is a silent reporting regression).
func TestAblationVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run in -short mode")
	}
	tab, err := runID(t, "ablation", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []string{
		"Baseline (host copy)",
		"ISC-B (device copy)",
		"ISC-C (remap, unaligned)",
		"Check-In (remap, aligned)",
		"Check-In, no data cache",
		"Baseline, no data cache",
		"Check-In, GC cost-benefit",
		"Check-In, GC fifo",
	}
	if len(tab.Rows) != len(wantRows) {
		t.Fatalf("ablation produced %d rows, want %d", len(tab.Rows), len(wantRows))
	}
	wantCols := []string{"variant", "kqps", "p99.9 (ms)", "redundant", "ckpt (ms)"}
	if len(tab.Columns) != len(wantCols) {
		t.Fatalf("ablation has %d columns, want %d", len(tab.Columns), len(wantCols))
	}
	for i, c := range wantCols {
		if tab.Columns[i] != c {
			t.Errorf("column %d = %q, want %q", i, tab.Columns[i], c)
		}
	}
	for i, row := range tab.Rows {
		if row[0] != wantRows[i] {
			t.Errorf("row %d variant = %q, want %q", i, row[0], wantRows[i])
		}
		kqps, err := strconv.ParseFloat(row[1], 64)
		if err != nil || kqps <= 0 {
			t.Errorf("%s: kqps cell %q is not a positive number", row[0], row[1])
		}
		if _, err := strconv.ParseFloat(row[2], 64); err != nil {
			t.Errorf("%s: p99.9 cell %q does not parse", row[0], row[2])
		}
		if _, err := strconv.ParseUint(row[3], 10, 64); err != nil {
			t.Errorf("%s: redundant cell %q does not parse", row[0], row[3])
		}
	}
	// Every variant is an independent configuration; identical throughput on
	// all eight rows would mean the levers are not actually being applied.
	distinct := map[string]bool{}
	for _, row := range tab.Rows {
		distinct[strings.Join(row[1:], "|")] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d ablation variants produced identical measurements — levers not applied", len(tab.Rows))
	}
}
