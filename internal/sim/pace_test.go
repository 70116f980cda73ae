package sim

import (
	"fmt"
	"slices"
	"testing"
)

// dispatch is one logged action: the event it ran in (instant and
// sequence number), who acted, and what it did.
type dispatch struct {
	at    VTime
	seq   uint64
	actor int
	step  int // Pace step index; -1 after the loop resumes, -2 side events
}

// paceRound is one loop of a process's plan: n steps gap apart, each step
// scheduling a side event side[k] later (or none, when negative); after the
// loop the process sleeps post.
type paceRound struct {
	n    int
	gap  VTime
	side []VTime
	post VTime
}

// pacePlan draws every process's rounds up front from the seed, so both
// runs of a mix consume the RNG identically whatever their interleaving.
// Gaps and delays are multiples of 10 ns, so instants collide often.
func pacePlan(seed int64, procs int) [][]paceRound {
	rng := NewRNG(seed)
	plan := make([][]paceRound, procs)
	for i := range plan {
		for r := 0; r < 6; r++ {
			rd := paceRound{
				n:    rng.Intn(5), // includes empty loops
				gap:  VTime(rng.Intn(3)) * 10,
				post: VTime(rng.Intn(3)) * 10,
			}
			for k := 0; k < rd.n; k++ {
				d := VTime(rng.Intn(4)) * 10
				if rng.Intn(3) == 0 {
					d = ^VTime(0) // no side event
				}
				rd.side = append(rd.side, d)
			}
			plan[i] = append(plan[i], rd)
		}
	}
	return plan
}

// runPaceMix runs plan once, with each loop written as Sleep calls or as
// one Pace, and returns the dispatch log and the executed-event count.
func runPaceMix(plan [][]paceRound, pace bool) ([]dispatch, uint64) {
	e := NewEngine()
	var log []dispatch
	note := func(actor, step int) {
		log = append(log, dispatch{at: e.now, seq: e.cur, actor: actor, step: step})
	}
	for i, rounds := range plan {
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for _, rd := range rounds {
				step := func(k int) {
					note(i, k)
					if d := rd.side[k]; d != ^VTime(0) {
						e.Schedule(d, func() { note(i, -2) })
					}
				}
				if pace {
					p.Pace(rd.n, rd.gap, step)
				} else {
					for k := 0; k < rd.n; k++ {
						p.Sleep(rd.gap)
						step(k)
					}
				}
				note(i, -1)
				p.Sleep(rd.post)
			}
		})
	}
	e.Run()
	return log, e.Executed()
}

// TestPaceMatchesSleepLoop is Pace's exactness oracle: seeded mixes of
// processes whose steps, side events and resumptions collide on the same
// instants dispatch identically — same (instant, sequence number) for every
// step and every resumption, and the same number of events — whether each
// loop is written as Sleep calls or as one Pace.
func TestPaceMatchesSleepLoop(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		plan := pacePlan(seed, 1+int(seed%5))
		want, wantN := runPaceMix(plan, false)
		got, gotN := runPaceMix(plan, true)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: dispatch %d: Pace %+v, Sleep loop %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: Pace logged %d dispatches, Sleep loop %d", seed, len(got), len(want))
		}
		if gotN != wantN {
			t.Fatalf("seed %d: Pace executed %d events, Sleep loop %d", seed, gotN, wantN)
		}
	}
}

// TestPaceStepMustNotBlock: a step runs in engine context, off the
// process's stack, so blocking there panics instead of corrupting the
// coroutine.
func TestPaceStepMustNotBlock(t *testing.T) {
	e := NewEngine()
	e.Go("pacer", func(p *Proc) {
		p.Pace(2, 10, func(int) { p.Sleep(1) })
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a blocking Pace step did not panic")
		}
	}()
	e.Run()
}
