package check

import (
	"cmp"
	"fmt"
	"testing"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/inject"
)

// TestSpareReserveBound: spare blocks per die come out of the working
// blocks of Build's flash-map verification geometry (24 blocks per die)
// when they are not added on top of it. Under the heavy profile a reserve
// of 12 ran the FTL out of free blocks, a panic in allocBlock, on
// lsm-tiered/dftl-basic with ISC-A at seed 2 and ISC-B at seed 5. Open
// refuses that reserve now. At the largest reserve it accepts, 10, every
// heavy flash-map stack runs its trace to the end, some of them on a
// device degraded to read-only, and recovers what its model committed.
func TestSpareReserveBound(t *testing.T) {
	const most = 10
	// run opens the stack with spares per die taken from its working
	// blocks (refused reports Open's error) and replays its trace.
	run := func(st Stack, s checkin.Strategy, seed int64, spares int) (readOnly bool, refused, err error) {
		opts := st.Schedule()
		opts.FaultSpares = 0 // the profile's reserve, replaced below
		cfg, err := buildConfig(s, seed, opts, inject.New())
		if err != nil {
			return false, nil, err
		}
		cfg.SpareBlocksPerDie = spares
		db, model, err := open(cfg)
		if err != nil {
			return false, err, nil
		}
		tr, err := NewTrace(opts, seed)
		if err != nil {
			return false, nil, err
		}
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		db.Load()
		model.Loaded()
		if err := replay(db, tr, opts); err != nil {
			return false, nil, err
		}
		return db.Health().ReadOnly, nil, Validate(db, model)
	}
	tiered := Stack{Engine: "lsm", Compaction: "tiered", FTLMap: "dftl-basic", Errors: "heavy"}
	for _, c := range []struct {
		s    checkin.Strategy
		seed int64
	}{{checkin.StrategyISCA, 2}, {checkin.StrategyISCB, 5}} {
		for _, spares := range []int{12, most + 1} {
			if _, refused, err := run(tiered, c.s, c.seed, spares); refused == nil {
				t.Errorf("%s %s seed %d: Open accepted %d spares per die (run: %v)", tiered, c.s, c.seed, spares, err)
			}
		}
	}
	readOnly := 0
	for _, st := range []Stack{
		{FTLMap: "dftl", Errors: "heavy"}, {FTLMap: "dftl-basic", Errors: "heavy"},
		{Engine: "lsm", FTLMap: "dftl", Errors: "heavy"}, tiered,
	} {
		for _, s := range checkin.Strategies {
			for seed := int64(1); seed <= 3; seed++ {
				ro, refused, err := run(st, s, seed, most)
				if err = cmp.Or(refused, err); err != nil {
					t.Errorf("%s %s seed %d, %d spares per die: %v", st, s, seed, most, err)
				}
				if ro {
					readOnly++
				}
			}
		}
	}
	if readOnly == 0 {
		t.Errorf("no run at %d spares per die degraded to read-only", most)
	}
	t.Logf("%d of 60 runs at %d spares per die ended read-only", readOnly, most)
}
