package harness

import (
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
)

// TestSnapshotDeterminism renders experiments with the load-snapshot
// template cache enabled and disabled and requires byte-identical output —
// the central correctness claim of snapshot-and-fork. The set covers the
// main sweep shapes: fig8a (small-device config with GC pressure), lifetime
// (post-run DB inspection through runJobsKeepDB), fig11a (the widest
// strategy x mix x thread sweep), recovery (crash recovery plus SPOR
// validation against forked state) and compaction (mixed journal and LSM
// cells sharing one trace). The engine axis rides along: fig8a runs once
// per backend, so LSM snapshots restore as exactly as journal ones.
func TestSnapshotDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot determinism sweep in -short mode")
	}
	cases := []struct {
		name, id, engine string
	}{
		{"fig8a", "fig8a", ""},
		{"lifetime", "lifetime", ""},
		{"fig11a", "fig11a", ""},
		{"recovery", "recovery", ""},
		{"compaction", "compaction", ""},
		{"fig8a-lsm", "fig8a", "lsm"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			exp, err := Lookup(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(mode string) string {
				o := tinyOpts()
				o.Snapshots = mode
				o.Config = checkin.DefaultConfig()
				o.Config.Engine = tc.engine
				tab, _, err := Run(exp, o)
				if err != nil {
					t.Fatalf("snapshots %s: %v", mode, err)
				}
				var sb strings.Builder
				tab.Render(&sb)
				return sb.String()
			}
			on, off := render("on"), render("off")
			if on != off {
				t.Errorf("%s output differs between snapshots on and off:\n--- on\n%s\n--- off\n%s", tc.name, on, off)
			}
			if !strings.Contains(on, "==") || len(on) < 100 {
				t.Errorf("%s rendered output suspiciously small (vacuous comparison?):\n%s", tc.name, on)
			}
		})
	}
}
