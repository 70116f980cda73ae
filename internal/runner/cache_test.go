package runner

import (
	"sync/atomic"
	"testing"

	checkin "github.com/checkin-kv/checkin"
)

// TestRunWithSnapshotsMatchesDirect runs the same jobs with and without the
// template cache and requires identical metrics — the forked load phase
// must be indistinguishable from a direct one.
func TestRunWithSnapshotsMatchesDirect(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	jobs := []Job{tinyJob("a", 1), tinyJob("b", 2), tinyJob("c", 3)}
	direct := RunWith(jobs, Options{Parallelism: 2})
	snap := RunWith(jobs, Options{Parallelism: 2, Snapshots: true})
	for i := range jobs {
		if direct[i].Err != nil || snap[i].Err != nil {
			t.Fatalf("job %d errors: direct=%v snap=%v", i, direct[i].Err, snap[i].Err)
		}
		if d, s := direct[i].Metrics.Summary(), snap[i].Metrics.Summary(); d != s {
			t.Errorf("job %d diverges with snapshots on:\n--- direct\n%s\n--- snapshots\n%s", i, d, s)
		}
		if snap[i].DB == nil {
			t.Errorf("job %d: snapshot run dropped the DB", i)
		}
	}
}

// TestRunWithSnapshotsSharesLoad verifies the template actually short-
// circuits load work: with three jobs differing only in run-phase fields,
// exactly one load phase executes (observable as exactly one execute-var
// bypass: the direct executor runs only for the template build, which goes
// through checkin directly, so the stub below must never fire).
func TestRunWithSnapshotsSharesLoad(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	var directRuns atomic.Int64
	orig := execute
	execute = func(j Job) (*checkin.DB, *checkin.Metrics, Timing, error) {
		directRuns.Add(1)
		return orig(j)
	}
	defer func() { execute = orig }()

	jobs := []Job{tinyJob("s1", 1), tinyJob("s2", 2), tinyJob("s3", 3)}
	rs := RunWith(jobs, Options{Parallelism: 1, Snapshots: true})
	for i := range rs {
		if rs[i].Err != nil {
			t.Fatalf("job %d: %v", i, rs[i].Err)
		}
	}
	if n := directRuns.Load(); n != 0 {
		t.Errorf("%d jobs fell back to the direct (non-forking) path; want 0", n)
	}
}

// TestRunWithMemoDedupes submits the same (config, spec) pair several times
// and checks duplicates share one simulation: identical metrics pointers,
// nil DB on the cached copies.
func TestRunWithMemoDedupes(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	j := tinyJob("dup", 7)
	jobs := []Job{j, j, j}
	rs := RunWith(jobs, Options{Parallelism: 1, Snapshots: true, Memo: true})
	withDB := 0
	for i := range rs {
		if rs[i].Err != nil {
			t.Fatalf("job %d: %v", i, rs[i].Err)
		}
		if rs[i].Metrics != rs[0].Metrics {
			t.Errorf("job %d did not share the memoized metrics", i)
		}
		if rs[i].DB != nil {
			withDB++
		}
	}
	if withDB != 1 {
		t.Errorf("%d results carry a DB; want exactly 1 (the run that executed)", withDB)
	}
}

// TestRunWithMemoKeyedByRunPhase checks that run-phase config changes miss
// the memo (different results) while the load template is still shared.
func TestRunWithMemoKeyedByRunPhase(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	a := tinyJob("seed1", 1)
	b := tinyJob("seed2", 2)
	rs := RunWith([]Job{a, b}, Options{Parallelism: 1, Snapshots: true, Memo: true})
	if rs[0].Err != nil || rs[1].Err != nil {
		t.Fatalf("errors: %v / %v", rs[0].Err, rs[1].Err)
	}
	if rs[0].Metrics.Summary() == rs[1].Metrics.Summary() {
		t.Error("different seeds produced identical summaries; memo key is too coarse")
	}
}

// TestMemoSkipsTraceReplay ensures trace-replay jobs bypass the memo: the
// trace is identified by pointer, which is not a stable key.
func TestMemoSkipsTraceReplay(t *testing.T) {
	j := tinyJob("traced", 1)
	tr, err := checkin.RecordWorkload(j.Config.Keys, j.Config.Records,
		checkin.WorkloadA, true, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Spec.Trace = tr
	if _, ok := memoKeyFor(j, Options{Memo: true}); ok {
		t.Error("trace-replay job produced a memo key")
	}
}
