package workload

import (
	"strings"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

func TestExtendedMixesValid(t *testing.T) {
	for _, m := range []Mix{WorkloadB, WorkloadC, WorkloadD} {
		if err := m.Validate(); err != nil {
			t.Errorf("mix %+v invalid: %v", m, err)
		}
	}
	if WorkloadC.ReadPct != 100 {
		t.Error("workload C must be read-only")
	}
}

func TestTraceRecordReplay(t *testing.T) {
	rng := sim.NewRNG(9)
	g, err := NewGenerator(Uniform{Keys: 50}, FixedSizer{Size: 256}, WorkloadA, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr := RecordTrace(g, 500)
	if len(tr.Ops) != 500 {
		t.Fatalf("trace has %d ops", len(tr.Ops))
	}
	// Two replays produce identical streams.
	a, b := NewReplayer(tr), NewReplayer(tr)
	for i := 0; i < 500; i++ {
		if a.Next() != b.Next() {
			t.Fatal("replays diverged")
		}
	}
	if a.Remaining() != 0 {
		t.Errorf("Remaining = %d after full replay", a.Remaining())
	}
	// Exhausted non-looping replayer repeats the last op.
	last := tr.Ops[len(tr.Ops)-1]
	if a.Next() != last {
		t.Error("exhausted replayer did not pin to last op")
	}
	// Looping replayer wraps to the first op.
	c := NewReplayer(tr)
	c.Loop = true
	for i := 0; i < 500; i++ {
		c.Next()
	}
	if c.Next() != tr.Ops[0] {
		t.Error("looping replayer did not wrap")
	}
}

func TestTraceStats(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{Kind: OpRead, Key: 1, Size: 100},
		{Kind: OpUpdate, Key: 2, Size: 200},
		{Kind: OpReadModifyWrite, Key: 3, Size: 300},
		{Kind: OpInsert, Key: 4, Size: 400},
	}}
	s := tr.Stats()
	for _, want := range []string{"4 ops", "1 reads", "1 updates", "1 rmws", "1 inserts", "900 write bytes"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats %q missing %q", s, want)
		}
	}
}

func TestEmptyTracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewReplayer on empty trace did not panic")
		}
	}()
	NewReplayer(&Trace{})
}
