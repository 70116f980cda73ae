package lsm

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/workload"
)

// forkStack forks every layer of en's stack, as a snapshot fork does: the
// kernel at its current state, the NAND array, the FTL, the controller and
// the engine, which runs under cfg. en must be quiescent and, when forked
// from several goroutines at once, shared first (FTL.Share, Engine.Share).
func forkStack(en *Engine, cfg Config) (*Engine, error) {
	eng := en.Sim().Fork(en.Sim().State())
	array := nand.Fork(eng, en.Device().FTL().Array())
	f, err := ftl.Fork(eng, array, en.Device().FTL())
	if err != nil {
		return nil, err
	}
	dev, err := ssd.Fork(eng, f, en.Device())
	if err != nil {
		return nil, err
	}
	return Fork(eng, dev, cfg, en)
}

// runContent is what a run holds, copied.
type runContent struct {
	keys, vers, offs []int64
}

func contentOf(r *run) runContent {
	return runContent{slices.Clone(r.keys), slices.Clone(r.vers), slices.Clone(r.offs)}
}

// installLog records every run each engine installs, by engine and run
// id, as it stood at its install.
type installLog struct {
	mu   sync.Mutex
	runs map[*Engine]map[uint64]runContent
}

// note records the runs of en's levels it has not seen yet.
func (l *installLog) note(en *Engine) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := l.runs[en]
	if seen == nil {
		seen = map[uint64]runContent{}
		l.runs[en] = seen
	}
	for _, level := range en.levels {
		for _, r := range level {
			if _, ok := seen[r.id]; !ok {
				seen[r.id] = contentOf(r)
			}
		}
	}
}

// check reports every run en holds, in its levels or its durable set,
// whose content differs from what it held when en, or the template en was
// forked from, installed it.
func (l *installLog) check(t *testing.T, name string, en, tmpl *Engine) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	held := slices.Concat(en.durableRuns, slices.Concat(en.levels[:]...))
	if len(held) == 0 {
		t.Fatalf("%s holds no runs", name)
	}
	for _, r := range held {
		want, ok := l.runs[en][r.id]
		if !ok {
			want, ok = l.runs[tmpl][r.id]
		}
		if !ok {
			t.Errorf("%s: run %d was never installed", name, r.id)
			continue
		}
		if got := contentOf(r); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: run %d (level %d) changed since its install: %d keys, want %d",
				name, r.id, r.level, len(got.keys), len(want.keys))
		}
	}
}

// TestLSMForkRunsStayPrivate is the LSM engine's TestForkWritesStayPrivate:
// a template that has run past several compactions, so it holds spare
// runs as well as installed ones, is shared, then two forks under
// different seeds run concurrently, each past several compactions of its
// own that delete runs the template and the other fork hold. Afterwards
// every run the template and each fork holds keeps the keys, versions and
// offsets it was installed with, and each fork's recovery equals that of
// the same fork run alone. Run it under -race: a fork refilling a shared
// run is both a data race with its sibling and a content difference here.
func TestLSMForkRunsStayPrivate(t *testing.T) {
	log := &installLog{runs: map[*Engine]map[uint64]runContent{}}
	prev := afterInstall
	afterInstall = log.note
	t.Cleanup(func() { afterInstall = prev })

	e, tmpl := newTestEngine(t, core.StrategyCheckIn, nil)
	if err := tmpl.Load(); err != nil {
		t.Fatal(err)
	}
	spec := core.RunSpec{Threads: 8, TotalQueries: 12_000, Mix: workload.Mix{ReadPct: 20, UpdatePct: 80}, Zipfian: true}
	if _, err := tmpl.Run(spec); err != nil {
		t.Fatal(err)
	}
	drain(e, tmpl)
	if tmpl.st.Compactions < 3 || len(tmpl.spare) == 0 {
		t.Fatalf("template ran %d compactions and holds %d spare runs, want several and some", tmpl.st.Compactions, len(tmpl.spare))
	}
	tmpl.Device().FTL().Share()
	tmpl.Share()

	// run forks the template under seed and runs spec on the fork.
	run := func(seed int64) (*Engine, error) {
		cfg := tmpl.cfg
		cfg.Seed = seed
		en, err := forkStack(tmpl, cfg)
		if err != nil {
			return nil, err
		}
		before := en.st.Compactions
		if _, err := en.Run(spec); err != nil {
			return nil, err
		}
		drain(en.Sim(), en)
		if n := en.st.Compactions - before; n < 3 {
			return nil, fmt.Errorf("seed %d: the fork ran %d compactions, want several", seed, n)
		}
		return en, nil
	}
	seeds := []int64{2, 3}
	forks := make([]*Engine, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			forks[i], errs[i] = run(seed)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	log.check(t, "template", tmpl, tmpl)
	for i, en := range forks {
		log.check(t, fmt.Sprintf("fork %d", i), en, tmpl)
		alone, err := run(seeds[i])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := en.Recovery(), alone.Recovery(); !reflect.DeepEqual(got, want) {
			t.Errorf("fork %d: recovery differs from the same fork run alone", i)
		}
	}
	if reflect.DeepEqual(forks[0].Recovery().Recovered, forks[1].Recovery().Recovered) {
		t.Error("both forks recover the same versions: the seeds did not tell their runs apart")
	}
}
