package runner

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/sim"
)

// tinyJob returns a fast, deterministic run configuration.
func tinyJob(name string, seed int64) Job {
	cfg := checkin.DefaultConfig()
	cfg.Strategy = checkin.StrategyCheckIn
	cfg.Keys = 2_000
	cfg.BlocksPerPlane = 32
	cfg.JournalHalfMB = 4
	cfg.Seed = seed
	return Job{
		Name:   name,
		Config: cfg,
		Spec: checkin.RunSpec{
			Threads:      4,
			TotalQueries: 1_500,
			Mix:          checkin.WorkloadA,
			Zipfian:      true,
		},
	}
}

func TestRunOrderingAndDeterminism(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		// distinct seeds so every result is distinguishable: an ordering
		// bug cannot hide behind identical outputs
		jobs[i] = tinyJob(fmt.Sprintf("job-%d", i), int64(i+1))
	}

	seq := RunWith(jobs, Options{Parallelism: 1})
	par := RunWith(jobs, Options{Parallelism: 4})
	if len(seq) != len(jobs) || len(par) != len(jobs) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(jobs))
	}
	for i := range jobs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d errors: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Name != jobs[i].Name || par[i].Name != jobs[i].Name {
			t.Errorf("job %d name: seq=%q par=%q want %q", i, seq[i].Name, par[i].Name, jobs[i].Name)
		}
		// byte-identical summaries prove both ordering and per-run
		// determinism under concurrency
		s, p := seq[i].Metrics.Summary(), par[i].Metrics.Summary()
		if s != p {
			t.Errorf("job %d metrics diverge between parallelism 1 and 4:\n--- seq\n%s\n--- par\n%s", i, s, p)
		}
	}
	// distinct seeds must actually differ, or the checks above are vacuous
	if seq[0].Metrics.Summary() == seq[1].Metrics.Summary() {
		t.Error("different seeds produced identical summaries; determinism check is vacuous")
	}
}

func TestRunErrorPropagation(t *testing.T) {
	jobs := []Job{tinyJob("good", 1), tinyJob("bad", 2), tinyJob("also-good", 3)}
	jobs[1].Config.GCPolicy = "bogus-policy" // rejected by checkin.Open

	results, err := RunAllWith(jobs, Options{Parallelism: 2})
	if err == nil {
		t.Fatal("RunAll did not surface the job error")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error %q does not name the failing job", err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || results[1].DB != nil || results[1].Metrics != nil {
		t.Errorf("failed job result not sanitized: %+v", results[1])
	}
}

func TestRunPanicContainment(t *testing.T) {
	orig := execute
	defer func() { execute = orig }()
	execute = func(j Job) (*checkin.DB, *checkin.Metrics, Timing, error) {
		switch j.Name {
		case "boom":
			panic("simulated invariant violation")
		case "proc-boom":
			// The same violation raised inside a simulated process, as an
			// FTL check failing under a client's Put would be.
			db, err := checkin.Open(j.Config)
			if err != nil {
				return nil, nil, Timing{}, err
			}
			db.Sim().Go("client-0", func(p *sim.Proc) {
				p.Sleep(sim.Microsecond)
				panic("simulated invariant violation")
			})
			db.Sim().Run()
		}
		return orig(j)
	}

	jobs := []Job{tinyJob("ok", 1), tinyJob("boom", 2), tinyJob("ok2", 3), tinyJob("proc-boom", 4)}
	results := RunWith(jobs, Options{Parallelism: 3})
	for _, i := range []int{1, 3} {
		err := results[i].Err
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("job %d: panic not converted to error: %v", i, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", jobs[i].Name)) {
			t.Errorf("panic error %q does not name the job", err)
		}
	}
	if err := results[3].Err.Error(); !strings.Contains(err, `process "client-0"`) {
		t.Errorf("process panic error %q does not name the process", err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("job %d infected by sibling panic: %v", i, results[i].Err)
		}
	}
}

func TestRunParallelismClamping(t *testing.T) {
	// more workers than jobs, zero and negative parallelism must all work
	for _, par := range []int{0, -3, 64} {
		results := RunWith([]Job{tinyJob("solo", 1)}, Options{Parallelism: par})
		if len(results) != 1 || results[0].Err != nil {
			t.Fatalf("parallelism %d: %+v", par, results)
		}
	}
	if out := RunWith(nil, Options{Parallelism: 8}); len(out) != 0 {
		t.Fatalf("Run(nil) returned %d results", len(out))
	}
}

func TestRunAllNilError(t *testing.T) {
	results, err := RunAllWith([]Job{tinyJob("a", 1)}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	var target error = results[0].Err
	if !errors.Is(target, nil) {
		t.Fatalf("unexpected error: %v", target)
	}
}
