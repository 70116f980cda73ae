package runner

import (
	"fmt"
	"sync"
	"time"

	checkin "github.com/checkin-kv/checkin"
)

// Options selects the acceleration layers for a sweep. The zero value is
// the legacy behaviour: every job opens, loads and runs privately.
type Options struct {
	// Parallelism bounds the worker pool (<= 0 selects runtime.NumCPU(),
	// 1 runs sequentially on the calling goroutine).
	Parallelism int
	// Snapshots enables the process-wide load-template cache: the first
	// job with a given load fingerprint runs the load phase and captures a
	// snapshot; every later job with the same fingerprint forks a private
	// copy instead of re-simulating the load. Unsnapshottable configs
	// (fault injection, tracing) fall back to a direct load transparently.
	Snapshots bool
	// Memo enables whole-run memoization: jobs with identical resolved
	// (Config, Spec) pairs execute once and share the Metrics. Memoized
	// duplicates carry a nil Result.DB — leave Memo off for sweeps that
	// inspect the post-run DB.
	Memo bool
}

const (
	maxTemplates = 16
	maxMemo      = 512
)

// templateEntry materializes one load snapshot exactly once, no matter how
// many workers ask for it concurrently.
type templateEntry struct {
	once sync.Once
	snap *checkin.Snapshot
	err  error
}

var templates = struct {
	mu sync.Mutex
	m  map[uint64]*templateEntry
}{m: make(map[uint64]*templateEntry)}

// template returns the load snapshot for cfg, building it on first use.
// A nil snapshot (with nil error) means cfg is not snapshottable or the
// cache is full — the caller must load directly.
func template(cfg checkin.Config) (*checkin.Snapshot, error) {
	fp, ok := checkin.LoadFingerprint(cfg)
	if !ok {
		return nil, nil
	}
	templates.mu.Lock()
	e := templates.m[fp]
	if e == nil {
		if len(templates.m) >= maxTemplates {
			templates.mu.Unlock()
			return nil, nil
		}
		e = &templateEntry{}
		templates.m[fp] = e
	}
	templates.mu.Unlock()
	e.once.Do(func() {
		db, err := checkin.Open(cfg)
		if err != nil {
			e.err = err
			return
		}
		db.Load()
		e.snap, e.err = db.Snapshot()
	})
	return e.snap, e.err
}

// executeSnap runs one job, forking the load template when enabled and
// available; any template problem falls back to the direct path, where the
// same failure (if real) reproduces with full context.
func executeSnap(j Job, o Options) (*checkin.DB, *checkin.Metrics, Timing, error) {
	if !o.Snapshots {
		return execute(j)
	}
	// The load phase on this path is template lookup plus fork; the first
	// job with a given fingerprint also pays the template build inside
	// template(), which is the honest place to charge it.
	t0 := time.Now()
	snap, err := template(j.Config)
	if err != nil || snap == nil {
		return execute(j)
	}
	db, err := snap.Fork(j.Config)
	if err != nil {
		return execute(j)
	}
	tm := Timing{Load: time.Since(t0)}
	t0 = time.Now()
	m, err := db.Run(j.Spec)
	tm.Run = time.Since(t0)
	if err != nil {
		return nil, nil, tm, err
	}
	return db, m, tm, nil
}

type memoKey struct {
	cfgFP       uint64
	specFP      uint64
	snapshots   bool
	parallelism int
}

// memoKeyFor derives the memo key. ok is false when the job must not be
// memoized: unfingerprintable config, or a trace replay (traces are
// identified by pointer, which is not a stable key).
func memoKeyFor(j Job, o Options) (memoKey, bool) {
	if j.Spec.Trace != nil {
		return memoKey{}, false
	}
	fp, ok := checkin.Fingerprint(j.Config)
	if !ok {
		return memoKey{}, false
	}
	spec, ok := checkin.HashValues("spec", 0, j.Spec)
	if !ok {
		return memoKey{}, false
	}
	return memoKey{
		cfgFP:  fp,
		specFP: spec,
		// The snapshot mode and parallelism are part of the key so that
		// determinism tests comparing those settings — snapshots on vs
		// off, sequential vs parallel — always compute both sides for
		// real; the values themselves never affect a run's result.
		snapshots:   o.Snapshots,
		parallelism: o.Parallelism,
	}, true
}

type memoEntry struct {
	once sync.Once
	m    *checkin.Metrics
	tm   Timing
	err  error
}

var runMemo = struct {
	mu sync.Mutex
	m  map[memoKey]*memoEntry
}{m: make(map[memoKey]*memoEntry)}

// executeJob is the full acceleration stack for one job: memo lookup over
// the snapshot-forking executor. Only the goroutine that actually performs
// a memoized run receives the DB; sharers get the Metrics with a nil DB.
func executeJob(j Job, o Options) (*checkin.DB, *checkin.Metrics, Timing, error) {
	if !o.Memo {
		return executeSnap(j, o)
	}
	key, ok := memoKeyFor(j, o)
	if !ok {
		return executeSnap(j, o)
	}
	runMemo.mu.Lock()
	e := runMemo.m[key]
	if e == nil {
		if len(runMemo.m) >= maxMemo {
			runMemo.mu.Unlock()
			return executeSnap(j, o)
		}
		e = &memoEntry{}
		runMemo.m[key] = e
	}
	runMemo.mu.Unlock()
	var db *checkin.DB
	ran := false
	e.once.Do(func() {
		ran = true
		defer func() {
			if r := recover(); r != nil {
				db, e.m = nil, nil
				e.err = fmt.Errorf("runner: job %q panicked: %v", j.Name, r)
			}
		}()
		db, e.m, e.tm, e.err = executeSnap(j, o)
	})
	if !ran {
		// Sharers did no simulation: mark the timing so breakdowns can
		// distinguish a free cell from a genuinely fast one.
		return db, e.m, Timing{Memoized: true}, e.err
	}
	return db, e.m, e.tm, e.err
}

// ResetCaches drops the process-wide template and memo caches. Tests use it
// to measure cold-vs-warm behaviour; production sweeps never need it.
func ResetCaches() {
	templates.mu.Lock()
	templates.m = make(map[uint64]*templateEntry)
	templates.mu.Unlock()
	runMemo.mu.Lock()
	runMemo.m = make(map[memoKey]*memoEntry)
	runMemo.mu.Unlock()
}
