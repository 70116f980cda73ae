package check

import (
	"slices"
	"testing"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/workload"
)

// TestStrategyEquivalence replays one byte-identical trace crash-free on
// all five strategies over every stack of the crash table and asserts they
// converge to the identical final in-memory key/value state: the
// strategies, the engine, the mapping table and the NAND error profile
// change costs, never outcomes. A run that ends read-only fails, as in the
// crash table (runTable): its rejected writes would differ with each
// strategy's wear, so the oracle compares only runs that wrote every op.
func TestStrategyEquivalence(t *testing.T) {
	for _, st := range tableStacks() {
		t.Run(st.String(), func(t *testing.T) {
			t.Parallel()
			opts := st.Schedule()
			tr := trace(t, opts, 7)
			var ref []int64
			for _, s := range checkin.Strategies {
				census, _, db, err := RunCensus(s, 7, tr, opts)
				if err != nil {
					t.Fatalf("%s: %v", s, err)
				}
				if census.Health.ReadOnly {
					t.Errorf("%s ended read-only (%+v)", s, census.Health)
				}
				got := db.Host().Recovery().InMemory
				if ref == nil {
					ref = got
				} else if k := firstDiff(ref, got); k >= 0 {
					t.Errorf("%s diverges from %s at key %d: v%d vs v%d", s, checkin.Strategies[0], k, got[k], ref[k])
				}
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []int64) int {
	for k := range a {
		if a[k] != b[k] {
			return k
		}
	}
	return -1
}

// TestEngineEquivalence is the cross-backend differential oracle: one
// byte-identical operation stream drives the journal engine and the LSM
// engine (both compaction policies), with an explicit checkpoint epoch
// every 500 operations. At every epoch the recovered-version vector — the
// user-visible KV state a crash would reconstruct — and the payload bytes
// logged so far must be identical across backends, and after the final
// epoch both must pass full validation (model equality, SPOR, FTL
// invariants). The foreign-sizer case replays a trace recorded under
// another record-size mix, so some writes are larger than their record:
// both engines must log them at the record's size.
func TestEngineEquivalence(t *testing.T) {
	const epochEvery = 500
	opts := Stack{}.Schedule()
	for _, c := range []struct {
		name  string
		seed  int64
		sizer checkin.Sizer
	}{{"seed1", 1, sizer()}, {"seed2", 2, sizer()}, {"seed3", 3, sizer()}, {"foreign-sizer", 1, checkin.FixedRecords(1024)}} {
		t.Run(c.name, func(t *testing.T) {
			tr, err := checkin.RecordWorkload(opts.Keys, c.sizer, Mix, true, opts.Ops, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			oversized := slices.ContainsFunc(tr.Ops, func(op workload.Op) bool {
				return op.Kind == workload.OpUpdate && int(op.Size) > sizer().SizeOf(op.Key)
			})
			if oversized != (c.name == "foreign-sizer") {
				t.Fatalf("trace has a write larger than its record: %v", oversized)
			}
			ref, err := EpochSignatures(checkIn, c.seed, tr, opts, epochEvery)
			if err != nil {
				t.Fatalf("journal: %v", err)
			}
			if len(ref) == 0 {
				t.Fatal("no checkpoint epochs recorded")
			}
			for _, st := range []Stack{lsmLeveled, lsmTiered} {
				got, err := EpochSignatures(checkIn, c.seed, tr, st.Schedule(), epochEvery)
				if err != nil {
					t.Fatalf("%s: %v", st, err)
				}
				if len(got) != len(ref) {
					t.Fatalf("%s recorded %d epochs, journal %d", st, len(got), len(ref))
				}
				for e := range ref {
					if k := firstDiff(ref[e].Recovered, got[e].Recovered); k >= 0 {
						t.Fatalf("%s diverges from journal at epoch %d, key %d: journal v%d, lsm v%d",
							st, e, k, ref[e].Recovered[k], got[e].Recovered[k])
					}
					if ref[e].Logged != got[e].Logged {
						t.Fatalf("%s logged %d payload bytes by epoch %d, journal %d", st, got[e].Logged, e, ref[e].Logged)
					}
				}
			}
		})
	}
}
