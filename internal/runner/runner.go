// Package runner executes independent simulation runs on a worker pool.
//
// Every experiment run in this repository is a pure function of its
// (Config, RunSpec) pair: Open builds a private sim.Engine, Load and Run
// consult nothing but that engine's virtual clock and the config's seeded
// RNG, and all package-level state reachable from a run (workload mixes,
// sizers, recorded traces) is read-only. Runs are therefore embarrassingly
// parallel — the scheduler below fans them out across worker goroutines and
// hands the results back in submission order, so callers that format
// results sequentially produce byte-identical output at any parallelism.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	checkin "github.com/checkin-kv/checkin"
)

// Job is one independent simulation run: open Config, bulk-load, run Spec.
type Job struct {
	// Name labels the job in results and error messages.
	Name string
	// Config is the full machine configuration for this run.
	Config checkin.Config
	// Spec is the measured workload phase to execute.
	Spec checkin.RunSpec
}

// Result is the outcome of one Job, in the same order jobs were submitted.
type Result struct {
	// Name echoes Job.Name.
	Name string
	// DB is the simulated system after the run, for post-run inspection
	// (recovery simulation, energy accounting). Nil when Err is set.
	DB *checkin.DB
	// Metrics holds the run's measurements. Nil when Err is set.
	Metrics *checkin.Metrics
	// Timing is the wall-clock breakdown of this job's phases.
	Timing Timing
	// Err reports an Open/Run failure, or a contained worker panic.
	Err error
}

// Timing is the wall-clock phase breakdown of one executed job. Wall-clock
// only — the simulated system keeps its own virtual clock, which timing
// collection never touches, so results stay byte-identical with or without
// observers.
type Timing struct {
	// Load is the time spent producing the post-load state: a full load
	// simulation on the direct path, or the template lookup + fork on the
	// snapshot path (the job that builds a template is charged its build).
	Load time.Duration
	// Run is the time spent executing the measured workload phase.
	Run time.Duration
	// Memoized marks a job that shared another job's memoized run; its
	// Load/Run are (near-)zero because no simulation happened.
	Memoized bool
}

// execute runs one job start to finish. It is a variable so tests can
// substitute failure modes that the public config surface cannot reach.
var execute = func(j Job) (*checkin.DB, *checkin.Metrics, Timing, error) {
	var tm Timing
	db, err := checkin.Open(j.Config)
	if err != nil {
		return nil, nil, tm, err
	}
	t0 := time.Now()
	db.Load()
	tm.Load = time.Since(t0)
	t0 = time.Now()
	m, err := db.Run(j.Spec)
	tm.Run = time.Since(t0)
	if err != nil {
		return nil, nil, tm, err
	}
	return db, m, tm, nil
}

// runJob executes one job with panic containment: a panicking simulation
// (e.g. an FTL invariant violation) fails its own result instead of tearing
// down the whole sweep.
func runJob(j Job, o Options) (res Result) {
	res.Name = j.Name
	defer func() {
		if r := recover(); r != nil {
			res.DB, res.Metrics = nil, nil
			res.Err = fmt.Errorf("runner: job %q panicked: %v", j.Name, r)
		}
	}()
	res.DB, res.Metrics, res.Timing, res.Err = executeJob(j, o)
	return res
}

// RunWith executes jobs on a pool of o.Parallelism worker goroutines and
// returns one Result per job, in submission order. Parallelism <= 0 selects
// runtime.NumCPU(); 1 runs strictly sequentially on the calling goroutine.
// Individual failures are reported per Result, never as a partial slice:
// len(results) == len(jobs) always. The acceleration layers described by o
// (snapshot forking, memoizing) apply; the zero Options load every job
// privately.
func RunWith(jobs []Job, o Options) []Result {
	parallelism := o.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if parallelism > len(jobs) {
		parallelism = len(jobs)
	}
	results := make([]Result, len(jobs))
	if parallelism <= 1 {
		for i := range jobs {
			results[i] = runJob(jobs[i], o)
		}
		return results
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i] = runJob(jobs[i], o)
			}
		}()
	}
	wg.Wait()
	return results
}

// RunAllWith is RunWith plus fail-fast error collection: it returns the
// results alongside the first (by submission order) job error, if any.
func RunAllWith(jobs []Job, o Options) ([]Result, error) {
	results := RunWith(jobs, o)
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("runner: job %d (%s): %w", i, results[i].Name, results[i].Err)
		}
	}
	return results, nil
}
