package ftl

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// newSyncFTL builds a two-die FTL (one die per channel) with two frontiers
// per stream, so programs on one stream can finish out of issue order.
// Metadata flushes are off: their programs would share the dies.
func newSyncFTL(t *testing.T) (*sim.Engine, *FTL) {
	t.Helper()
	geo := smallGeo()
	geo.Channels = 2
	cfg := smallCfg()
	cfg.Parallelism = 2
	cfg.MetaFlushEntries = 1 << 30
	e := sim.NewEngine()
	arr, err := nand.New(e, geo, fastTim())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(e, arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, f
}

// programPageAt fills one page of stream s with the units from lun on, so
// exactly one page program issues. With stall > 0 the page's die is held
// busy for stall first, so the program finishes late. It returns the
// program's completion instant: the die's busy horizon right after it.
func programPageAt(t *testing.T, f *FTL, s Stream, tag Tag, lun int64, stall sim.VTime) sim.VTime {
	t.Helper()
	unit := int64(f.unit)
	f.Write(lun*unit, unit, tag, s)
	block := f.fronts[s][f.partial[s]].block
	if stall > 0 {
		f.Array().ReserveDie(block, stall)
	}
	programs := f.Array().Stats().Programs
	for i := int64(1); i < int64(f.slotsPerPage); i++ {
		f.Write((lun+i)*unit, unit, tag, s)
	}
	if got := f.Array().Stats().Programs; got != programs+1 {
		t.Fatalf("page fill issued %d programs, want 1", got-programs)
	}
	return f.Array().ReserveDie(block, 0)
}

// completion records when fut completes; the result reads ^0 until then.
func completion(e *sim.Engine, fut *sim.Future) *sim.VTime {
	at := ^sim.VTime(0)
	fut.OnComplete(func() { at = e.Now() })
	return &at
}

// TestSyncBarrier pins the durability barrier behind the host FLUSH: Sync
// waits for the programs of its own stream issued since the previous Sync
// that are still in flight, completes at the exact instant of the latest of
// them, and is already done when none is in flight.
func TestSyncBarrier(t *testing.T) {
	e, f := newSyncFTL(t)
	const ms = sim.Millisecond

	// Two data pages, the second held up behind a stalled die, and a
	// journal page that finishes later than both.
	fast := programPageAt(t, f, StreamData, TagHostData, 0, 0)
	slow := programPageAt(t, f, StreamData, TagHostData, 4, 10*ms)
	journal := programPageAt(t, f, StreamJournal, TagHostJournal, 100, 30*ms)
	if !(fast < slow && slow < journal) {
		t.Fatalf("setup: program ends fast=%v slow=%v journal=%v, want fast < slow < journal", fast, slow, journal)
	}
	first := completion(e, f.Sync(StreamData, TagHostData))

	// A program issued after that Sync, on the fast page's die: the next
	// Sync waits for it alone, not for the slow page still in flight.
	second := programPageAt(t, f, StreamData, TagHostData, 8, 0)
	if second >= slow {
		t.Fatalf("setup: second page ends at %v, want before the slow page's %v", second, slow)
	}
	secondSync := completion(e, f.Sync(StreamData, TagHostData))

	// Nothing issued since: done at once, though programs are in flight.
	if idle := f.Sync(StreamData, TagHostData); !idle.Done() {
		t.Error("Sync with no program since the previous Sync is not done")
	}
	journalSync := completion(e, f.Sync(StreamJournal, TagHostJournal))
	e.Run()

	if *first != slow {
		t.Errorf("first Sync completed at %v, want the slow program's end %v", *first, slow)
	}
	if *secondSync != second {
		t.Errorf("second Sync completed at %v, want its own program's end %v", *secondSync, second)
	}
	if *journalSync != journal {
		t.Errorf("journal Sync completed at %v, want %v", *journalSync, journal)
	}
	if done := f.Sync(StreamData, TagHostData); !done.Done() {
		t.Error("Sync after every program completed is not done")
	}
}

// TestSyncAtProgramCompletion issues Sync at the very instant a program
// completes: from an event dispatched before the program's completion
// event it waits and completes at that instant; from one dispatched after,
// it is already done.
func TestSyncAtProgramCompletion(t *testing.T) {
	_, twin := newSyncFTL(t)
	end := programPageAt(t, twin, StreamData, TagHostData, 0, 0)

	for _, before := range []bool{true, false} {
		e, f := newSyncFTL(t)
		var doneAtIssue bool
		var at *sim.VTime
		probe := func() {
			sf := f.Sync(StreamData, TagHostData)
			doneAtIssue = sf.Done()
			at = completion(e, sf)
		}
		if before {
			e.At(end, probe) // sequence number drawn before the program's
		}
		if got := programPageAt(t, f, StreamData, TagHostData, 0, 0); got != end {
			t.Fatalf("program ends at %v, twin at %v", got, end)
		}
		if !before {
			e.At(end, probe)
		}
		e.Run()
		switch {
		case at == nil:
			t.Fatalf("before=%v: probe never ran", before)
		case before && (doneAtIssue || *at != end):
			t.Errorf("Sync dispatched before the completion: done at issue %v, completed at %v; want pending, then %v",
				doneAtIssue, *at, end)
		case !before && !doneAtIssue:
			t.Error("Sync dispatched after the completion is not done at issue")
		}
	}
}
