package checkin_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
)

// dftlModels are the flash-resident mapping models under test: the full
// CMT optimization stack ("opt") and the basic layer it is built on
// ("legacy", the byte-identity anchor). The optimizations one at a time are
// covered by the ftl package's tests.
var dftlModels = []struct{ name, ftlmap string }{
	{"opt", "dftl"},
	{"legacy", "dftl-basic"},
}

// TestDFTLOptDeterminism proves the remap-aware CMT paths are deterministic
// and snapshot-safe: for both dftl models and three seeds, a direct
// load+run and a run forked from a post-load snapshot must produce
// byte-identical full dumps (metrics, journal, recovery, SPOR, health) with
// the differential mapping oracle armed the whole way — any coherence
// divergence panics at the faulting access instead of skewing the diff.
func TestDFTLOptDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("dftl model determinism matrix in -short mode")
	}
	for _, model := range dftlModels {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", model.name, seed), func(t *testing.T) {
				cfg := checkin.DefaultConfig()
				cfg.Strategy = checkin.StrategyCheckIn
				cfg.Keys = 5_000
				cfg.CheckpointInterval = 100 * time.Millisecond
				cfg.Seed = seed
				cfg.FTLMap = model.ftlmap
				spec := checkin.RunSpec{Threads: 8, TotalQueries: 8_000,
					Mix: checkin.WorkloadA, Zipfian: true}

				direct := func() string {
					db, err := checkin.Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					db.Device().FTL().EnableMapOracle()
					db.Load()
					return renderRunOn(t, db, spec)
				}
				forked := func() string {
					db, err := checkin.Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					db.Device().FTL().EnableMapOracle()
					db.Load()
					snap, err := db.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					fdb, err := snap.Fork(cfg)
					if err != nil {
						t.Fatal(err)
					}
					fdb.Device().FTL().EnableMapOracle()
					return renderRunOn(t, fdb, spec)
				}

				want := direct()
				if got := forked(); got != want {
					t.Fatalf("snapshot/fork run diverges from direct run:\n%s",
						firstDiff(want, got))
				}
			})
		}
	}
}

// renderRunOn runs spec on db and dumps everything observable — metrics
// summary, journal stats, lifetime/energy, a crash-recovery report, a device
// SPOR report, device health and the sampled timeline — into one string.
// Byte-equality of two dumps means the simulations were identical.
func renderRunOn(t *testing.T, db *checkin.DB, spec checkin.RunSpec) string {
	t.Helper()
	m, err := db.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(m.Summary())
	fmt.Fprintf(&sb, "journal=%+v\n", db.JournalStats())
	cfg := db.Config()
	fmt.Fprintf(&sb, "now=%v lifetime=%v energy=%v\n", db.Sim().Now(),
		m.Lifetime(cfg.MaxPECycles, cfg.PagesPerBlock), db.FlashEnergyMJ())
	fmt.Fprintf(&sb, "recovery=%+v\n", *db.SimulateRecovery())
	fmt.Fprintf(&sb, "spor=%+v\n", *db.SimulateSPOR())
	fmt.Fprintf(&sb, "health=%+v\n", db.Health())
	if m.Timeline != nil {
		if err := m.Timeline.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// firstDiff renders the first differing line of two multi-line strings.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return "(no line diff — lengths differ)"
}
