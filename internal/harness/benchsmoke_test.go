package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/runner"
)

// TestSnapshotBenchSmoke measures the end-to-end wall time of a multi-cell
// experiment with the load-snapshot template cache off and on, and writes
// the comparison to the file named by BENCH_SNAPSHOT_OUT (skipped when the
// variable is unset, so ordinary test runs stay fast). CI runs it as a
// benchmark smoke step; the committed BENCH_snapshot.json is a snapshot of
// one such run.
func TestSnapshotBenchSmoke(t *testing.T) {
	out := os.Getenv("BENCH_SNAPSHOT_OUT")
	if out == "" {
		t.Skip("set BENCH_SNAPSHOT_OUT=<path> to run the snapshot benchmark smoke")
	}
	// The fig11 pair is the paper's widest sweep and the worst pre-existing
	// duplication: fig11a and fig11b render the same strategy x mix x
	// thread grid, so before this acceleration stack every cell simulated
	// twice. Measure both tables end to end, exactly as `checkin-bench
	// -experiment fig11a,fig11b` runs them.
	ids := []string{"fig11a", "fig11b"}
	opts := Opts{Scale: 0.1, Threads: []int{4, 16}, Seed: 1}
	cells := len(checkin.Strategies) * len(fig11Mixes) * len(opts.Threads) * len(ids)

	measure := func(mode string) float64 {
		runner.ResetCaches()
		o := opts
		o.Snapshots = mode
		start := time.Now()
		for _, id := range ids {
			exp, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := Run(exp, o); err != nil {
				t.Fatalf("%s, snapshots %s: %v", id, mode, err)
			}
		}
		return time.Since(start).Seconds()
	}
	// Warm-up run to take JIT-free Go runtime effects (page faults, heap
	// growth) out of the off/on comparison, then one timed run per mode.
	measure("off")
	offSecs := measure("off")
	onSecs := measure("on")
	speedup := offSecs / onSecs

	report := map[string]any{
		"description": fmt.Sprintf(
			"End-to-end wall time of the fig11a+fig11b experiment pair (%d table cells: 5 strategies x 3 workload mixes x %v threads x 2 tables, Scale %v, seed %d) with the snapshot acceleration stack off vs on. With it on, runs sharing a load fingerprint fork one preconditioned simulator state instead of each re-simulating the bulk load, and identical (config, spec) cells shared between the two tables simulate once; rendered tables are byte-identical either way (TestSnapshotDeterminism).",
			cells, opts.Threads, opts.Scale, opts.Seed),
		"machine": map[string]any{
			"cpu":    cpuModel(),
			"cores":  runtime.NumCPU(),
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
		},
		"experiments": ids,
		"cells":       cells,
		"snapshot_off": map[string]any{
			"wall_seconds": round3(offSecs),
			"ns_per_run":   int64(offSecs * 1e9 / float64(cells)),
			"runs_per_sec": round3(float64(cells) / offSecs),
		},
		"snapshot_on": map[string]any{
			"wall_seconds": round3(onSecs),
			"ns_per_run":   int64(onSecs * 1e9 / float64(cells)),
			"runs_per_sec": round3(float64(cells) / onSecs),
		},
		"speedup": fmt.Sprintf("%.2fx", speedup),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshots off %.2fs, on %.2fs -> %.2fx (%d cells), wrote %s",
		offSecs, onSecs, speedup, cells, out)
	if speedup < 1.5 {
		// Timing on shared CI machines is noisy; surface a miss loudly but
		// don't fail the build on scheduler jitter.
		t.Logf("WARNING: speedup %.2fx below the 1.5x target", speedup)
	}
}

func round3(v float64) float64 { return float64(int64(v*1000)) / 1000 }

// cpuModel extracts the CPU model name (Linux) for the machine stanza.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
