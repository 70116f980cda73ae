package trace

import (
	"strings"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, KindGCVictim, 1, "") // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Count(KindGCVictim) != 0 {
		t.Error("nil tracer not inert")
	}
	if tr.Events() != nil {
		t.Error("nil tracer returned events")
	}
	if tr.Summary() != "tracing disabled" {
		t.Errorf("nil summary = %q", tr.Summary())
	}
}

func TestEmitAndOrder(t *testing.T) {
	tr := New(8)
	for i := 0; i < 5; i++ {
		tr.Emit(sim.VTime(i*100), KindJournalCommit, int64(i), "")
	}
	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("Len = %d", len(evs))
	}
	for i, e := range evs {
		if e.Arg != int64(i) {
			t.Fatalf("order broken: %v", evs)
		}
	}
	if tr.Count(KindJournalCommit) != 5 {
		t.Errorf("Count = %d", tr.Count(KindJournalCommit))
	}
}

func TestRingWraps(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(sim.VTime(i), KindGCVictim, int64(i), "")
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	// Oldest retained is 6, newest 9, in order.
	for i, e := range evs {
		if e.Arg != int64(6+i) {
			t.Fatalf("wrapped order wrong: %v", evs)
		}
	}
	if tr.Count(KindGCVictim) != 10 {
		t.Errorf("Count includes dropped: %d", tr.Count(KindGCVictim))
	}
}

func TestFilterAndBetween(t *testing.T) {
	tr := New(16)
	tr.Emit(10, KindCheckpointBegin, 0, "")
	tr.Emit(20, KindGCVictim, 7, "")
	tr.Emit(30, KindCheckpointEnd, 0, "")
	tr.Emit(40, KindGCVictim, 8, "")

	gcs := tr.Filter(KindGCVictim)
	if len(gcs) != 2 || gcs[0].Arg != 7 || gcs[1].Arg != 8 {
		t.Errorf("Filter = %v", gcs)
	}
	both := tr.Filter(KindCheckpointBegin, KindCheckpointEnd)
	if len(both) != 2 {
		t.Errorf("multi-kind filter = %v", both)
	}
	mid := tr.Between(15, 35)
	if len(mid) != 2 || mid[0].At != 20 || mid[1].At != 30 {
		t.Errorf("Between = %v", mid)
	}
}

func TestDumpAndSummary(t *testing.T) {
	tr := New(2)
	tr.Emit(1000, KindWearLevel, 3, "block 3")
	tr.Emit(2000, KindJournalCommit, 1, "")
	tr.Emit(3000, KindJournalCommit, 2, "")
	var sb strings.Builder
	if err := tr.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "journal-commit") || !strings.Contains(out, "overwritten") {
		t.Errorf("dump = %q", out)
	}
	sum := tr.Summary()
	if !strings.Contains(sum, "wear-level") || !strings.Contains(sum, "journal-commit 2") {
		t.Errorf("summary = %q", sum)
	}
}

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		KindCheckpointBegin: "ckpt-begin", KindCheckpointEnd: "ckpt-end",
		KindJournalCommit: "journal-commit", KindJournalSwitch: "journal-switch",
		KindGCVictim: "gc-victim", KindWearLevel: "wear-level",
		KindReadRetry: "read-retry", KindProgramFail: "program-fail",
		KindEraseFail: "erase-fail", KindBlockRetire: "block-retire",
		KindReadOnly: "read-only",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind renders empty")
	}
	ev := Event{At: 1500, Kind: KindGCVictim, Arg: 5, Detail: "x"}
	if !strings.Contains(ev.String(), "gc-victim") || !strings.Contains(ev.String(), "x") {
		t.Errorf("event string = %q", ev.String())
	}
}

func TestTinyCapacityClamped(t *testing.T) {
	tr := New(0)
	tr.Emit(0, KindGCVictim, 1, "")
	tr.Emit(1, KindGCVictim, 2, "")
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}
