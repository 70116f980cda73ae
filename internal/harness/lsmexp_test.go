package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
)

// TestCompactionTableShape pins the compaction experiment's structure: one
// journal reference row plus every (policy, strategy) LSM cell, with the
// LSM-only columns populated exactly on the LSM rows.
func TestCompactionTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	tab, err := runID(t, "compaction", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 1 + len(lsmPolicies)*len(checkin.Strategies)
	if len(tab.Rows) != wantRows {
		t.Fatalf("compaction rendered %d rows, want %d", len(tab.Rows), wantRows)
	}
	if tab.Rows[0][0] != "journal" {
		t.Fatalf("first row engine = %q, want journal reference", tab.Rows[0][0])
	}
	for i, row := range tab.Rows {
		isLSM := i > 0
		for _, col := range []int{7, 8, 9} { // flushes, compactions, merge MB
			if got := row[col] != "-"; got != isLSM {
				t.Errorf("row %d (%s/%s) column %d = %q; LSM-only columns must be set exactly on LSM rows",
					i, row[0], row[1], col, row[col])
			}
		}
		if isLSM {
			if n, err := strconv.Atoi(row[7]); err != nil || n < 1 {
				t.Errorf("row %d (%s/%s): flushes = %q, want >= 1", i, row[0], row[1], row[7])
			}
		}
	}
}

// TestLSMBenchSmoke runs the compaction experiment at evidence scale and
// writes the BENCH_lsm.json report (skipped unless BENCH_LSM_OUT names the
// output, so ordinary test runs stay fast). The headline compares Check-In
// against the Baseline host-side flush on the leveled LSM tree: redundant
// writes and checkpoint (flush-epoch) time under identical recorded inputs.
func TestLSMBenchSmoke(t *testing.T) {
	out := os.Getenv("BENCH_LSM_OUT")
	if out == "" {
		t.Skip("set BENCH_LSM_OUT=<path> to run the LSM benchmark smoke")
	}
	o := Opts{Scale: 0.5, Threads: []int{64}, Seed: 1}
	start := time.Now()
	tab, err := runID(t, "compaction", o)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	rows := make([]map[string]string, 0, len(tab.Rows))
	byCell := map[string]map[string]string{}
	for _, r := range tab.Rows {
		m := map[string]string{}
		for i, col := range tab.Columns {
			m[col] = r[i]
		}
		rows = append(rows, m)
		byCell[r[0]+"/"+r[1]] = m
	}
	num := func(cell, col string) float64 {
		v, err := strconv.ParseFloat(byCell[cell][col], 64)
		if err != nil {
			t.Fatalf("cell %s column %q = %q: %v", cell, col, byCell[cell][col], err)
		}
		return v
	}
	baseRed := num("lsm/leveled/Baseline", "redundant")
	ckinRed := num("lsm/leveled/Check-In", "redundant")
	baseCkpt := num("lsm/leveled/Baseline", "ckpt ms")
	ckinCkpt := num("lsm/leveled/Check-In", "ckpt ms")

	report := map[string]any{
		"description": fmt.Sprintf(
			"The compaction experiment at Scale %v, seed %d: one recorded write-only zipfian trace served by the journal engine (reference) and by the LSM engine under both compaction policies and all five checkpoint strategies. LSM rows flush each memtable epoch through the named strategy (Baseline: host sequential writes; ISC-A/B: device-side copies; ISC-C/Check-In: WAL-extent remapping) while compaction merges runs host-side. Rendered rows are deterministic; only wall_seconds varies between machines.",
			o.Scale, o.Seed),
		"machine": map[string]any{
			"cpu":    cpuModel(),
			"cores":  runtime.NumCPU(),
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
		},
		"columns":      tab.Columns,
		"rows":         rows,
		"wall_seconds": round3(wall.Seconds()),
		"headline": map[string]any{
			"leveled_baseline_redundant": baseRed,
			"leveled_checkin_redundant":  ckinRed,
			"leveled_baseline_ckpt_ms":   baseCkpt,
			"leveled_checkin_ckpt_ms":    ckinCkpt,
			"redundant_reduction":        fmt.Sprintf("%.0fx", baseRed/max(ckinRed, 1)),
			"ckpt_time_ratio":            fmt.Sprintf("%.2fx", baseCkpt/max(ckinCkpt, 0.001)),
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("lsm compaction bench: baseline %0.fms/%0.f redundant vs Check-In %0.fms/%0.f redundant, wrote %s",
		baseCkpt, baseRed, ckinCkpt, ckinRed, out)
}
