package harness

import (
	"strconv"
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
)

// checkRecoveryTable asserts the invariant parts of a Recovery run: one row
// per strategy in evaluation order, a zero-mismatch SPOR rebuild everywhere,
// journal replay actually happening under the write-only workload, and no
// RECOVERY MISMATCH note (the in-table signal that replay diverged from the
// durable state).
func checkRecoveryTable(t *testing.T, tab *Table) {
	t.Helper()
	if len(tab.Rows) != len(checkin.Strategies) {
		t.Fatalf("recovery produced %d rows, want %d", len(tab.Rows), len(checkin.Strategies))
	}
	for i, s := range checkin.Strategies {
		row := tab.Rows[i]
		if row[0] != s.String() {
			t.Errorf("row %d strategy = %q, want %q", i, row[0], s)
		}
		logs, err := strconv.ParseUint(row[1], 10, 64)
		if err != nil {
			t.Errorf("%s: logs-replayed cell %q does not parse", s, row[1])
		}
		kb, err := strconv.ParseUint(row[2], 10, 64)
		if err != nil {
			t.Errorf("%s: journal-KB cell %q does not parse", s, row[2])
		}
		if logs == 0 || kb == 0 {
			t.Errorf("%s: write-only workload left nothing to replay (logs=%d, KB=%d) — crash window vacuous", s, logs, kb)
		}
		if row[5] != "0" {
			t.Errorf("%s: SPOR mismatches = %s, want 0", s, row[5])
		}
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "RECOVERY MISMATCH") {
			t.Errorf("recovery table flagged a replay divergence: %s", n)
		}
	}
}

func TestRecoveryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery run in -short mode")
	}
	tab, err := runID(t, "recovery", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveryTable(t, tab)
}

// TestRecoveryTableWithErrors re-runs the recovery experiment on faulty
// flash (the light error profile, applied to Opts.Config): read
// retries and occasional block retirements must not cost the engine a
// single recovered version or the device a single SPOR mapping.
func TestRecoveryTableWithErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery run in -short mode")
	}
	light, err := checkin.ParseErrorProfile("light")
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOpts()
	o.Config = light.Apply(checkin.DefaultConfig())
	tab, err := runID(t, "recovery", o)
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveryTable(t, tab)
}
