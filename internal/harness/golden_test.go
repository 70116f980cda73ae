package harness

import (
	"os"
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
)

// goldenExperiments is the five-experiment sample the golden file pins: a
// spread over the table kinds (machine config, amplification, redundant
// writes, record-size patterns, recovery/SPOR).
var goldenExperiments = []string{"table1", "fig3a", "fig8b", "fig13b", "recovery"}

const goldenPath = "testdata/bench_golden.txt"

// goldenLSMExperiments is the LSM engine's sample: the write-ahead log's
// group commit and rotation (every table), its recovery scan timing
// (recovery), and compaction traffic (compaction).
var goldenLSMExperiments = []string{"recovery", "compaction", "fig9"}

const goldenLSMPath = "testdata/bench_golden_lsm.txt"

// TestGoldenBenchOutput pins the rendered checkin-bench output for a small
// sample byte-for-byte, once on the journal engine and once on the LSM
// engine. The simulator is deterministic, so ANY diff here means
// observable behaviour changed — timing model, FTL policy, metrics
// arithmetic or table formatting. An intentional change regenerates the
// files with:
//
//	CHECKIN_UPDATE_GOLDEN=1 go test ./internal/harness -run TestGoldenBenchOutput
//
// and the new golden diff rides along in the same commit, making the
// behaviour change visible in review.
func TestGoldenBenchOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep in -short mode")
	}
	checkGolden(t, goldenPath, goldenExperiments, tinyOpts())
	lsm := tinyOpts()
	lsm.Config = checkin.DefaultConfig()
	lsm.Config.Engine = "lsm"
	checkGolden(t, goldenLSMPath, goldenLSMExperiments, lsm)
}

// checkGolden renders ids under opts and compares the output with the
// golden file at path (or rewrites it when CHECKIN_UPDATE_GOLDEN is set).
func checkGolden(t *testing.T, path string, ids []string, opts Opts) {
	t.Helper()
	var sb strings.Builder
	for _, id := range ids {
		exp, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		tab, _, err := Run(exp, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tab.Render(&sb)
	}
	got := sb.String()

	if os.Getenv("CHECKIN_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file %s regenerated (%d bytes)", path, len(got))
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file %s unreadable (%v) — regenerate with CHECKIN_UPDATE_GOLDEN=1", path, err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("bench output diverged from %s at line %d:\n  got:  %q\n  want: %q\n"+
				"intentional change? regenerate with CHECKIN_UPDATE_GOLDEN=1 go test ./internal/harness -run TestGoldenBenchOutput",
				path, i+1, g, w)
		}
	}
	t.Fatalf("bench output diverged from %s (line endings?)", path)
}
