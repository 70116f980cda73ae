package core

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/workload"
)

func TestStrategyProperties(t *testing.T) {
	cases := []struct {
		s          Strategy
		name       string
		offloaded  bool
		remap      bool
		aligned    bool
		defaultMap int
	}{
		{StrategyBaseline, "Baseline", false, false, false, 4096},
		{StrategyISCA, "ISC-A", true, false, false, 4096},
		{StrategyISCB, "ISC-B", true, false, false, 4096},
		{StrategyISCC, "ISC-C", true, true, false, 512},
		{StrategyCheckIn, "Check-In", true, true, true, 512},
	}
	for _, c := range cases {
		if c.s.String() != c.name {
			t.Errorf("String() = %q, want %q", c.s.String(), c.name)
		}
		if c.s.Offloaded() != c.offloaded || c.s.UsesRemap() != c.remap ||
			c.s.SectorAligned() != c.aligned || c.s.DefaultMappingUnit() != c.defaultMap {
			t.Errorf("%v properties wrong", c.s)
		}
		got, err := ParseStrategy(c.name)
		if err != nil || got != c.s {
			t.Errorf("ParseStrategy(%q) = %v, %v", c.name, got, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("unknown strategy name accepted")
	}
	if len(Strategies) != 5 {
		t.Errorf("Strategies has %d entries", len(Strategies))
	}
}

func TestLayoutPlacement(t *testing.T) {
	l, err := NewLayout(1<<30, 100, workload.FixedSizer{Size: 1000}, 1<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	if l.JournalStart(0) != 0 || l.JournalStart(1) != 1<<20 {
		t.Error("journal halves misplaced")
	}
	if l.MetaStart != 2<<20 {
		t.Errorf("MetaStart = %d", l.MetaStart)
	}
	if l.DataStart <= l.MetaStart {
		t.Error("data area overlaps metadata")
	}
	// 1000-byte records in 512-aligned slots: 1024 bytes apart.
	off0, sz0 := l.Record(0)
	off1, _ := l.Record(1)
	if sz0 != 1000 || off1-off0 != 1024 {
		t.Errorf("record placement: off0=%d sz=%d off1=%d", off0, sz0, off1)
	}
	if l.SlotBytes(0) != 1024 {
		t.Errorf("SlotBytes = %d", l.SlotBytes(0))
	}
	if l.Keys() != 100 {
		t.Errorf("Keys = %d", l.Keys())
	}
	if l.DataBytes() != 100*1024 {
		t.Errorf("DataBytes = %d", l.DataBytes())
	}
	if l.PayloadBytes() != 100*1000 {
		t.Errorf("PayloadBytes = %d", l.PayloadBytes())
	}
}

func TestLayoutUnitAlignedSlots(t *testing.T) {
	l, err := NewLayout(1<<30, 10, workload.FixedSizer{Size: 300}, 1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 10; k++ {
		off, _ := l.Record(k)
		if off%4096 != 0 {
			t.Fatalf("record %d at %d not 4096-aligned", k, off)
		}
	}
	if l.SlotBytes(0) != 4096 {
		t.Errorf("SlotBytes = %d, want 4096", l.SlotBytes(0))
	}
}

func TestLayoutRejectsBadInputs(t *testing.T) {
	sz := workload.FixedSizer{Size: 512}
	if _, err := NewLayout(1<<30, 0, sz, 1<<20, 512); err == nil {
		t.Error("zero keys accepted")
	}
	if _, err := NewLayout(1<<30, 10, sz, 0, 512); err == nil {
		t.Error("zero journal accepted")
	}
	if _, err := NewLayout(1<<30, 10, sz, 1000, 512); err == nil {
		t.Error("unaligned journal half accepted")
	}
	// Device too small for the layout.
	if _, err := NewLayout(1<<21, 10000, workload.FixedSizer{Size: 4096}, 1<<20, 512); err == nil {
		t.Error("oversized layout accepted")
	}
	if _, err := NewLayout(1<<30, 10, badSizer{}, 1<<20, 512); err == nil {
		t.Error("non-positive record size accepted")
	}
}

type badSizer struct{}

func (badSizer) SizeOf(int64) int { return 0 }
func (badSizer) Name() string     { return "bad" }

func TestJMTFlagTransitions(t *testing.T) {
	jmt := NewJMT()
	e1 := &jmtEntry{key: 7, version: 1}
	e2 := &jmtEntry{key: 7, version: 2}
	e3 := &jmtEntry{key: 9, version: 1}
	jmt.Add(e1)
	if jmt.Latest(7) != e1 || jmt.Live() != 1 {
		t.Fatal("first add wrong")
	}
	jmt.Add(e2)
	if !e1.old {
		t.Error("superseded entry not flagged OLD")
	}
	if e2.old {
		t.Error("new entry flagged OLD")
	}
	if jmt.Latest(7) != e2 {
		t.Error("latest not updated")
	}
	jmt.Add(e3)
	if jmt.Len() != 3 || jmt.Live() != 2 {
		t.Errorf("Len=%d Live=%d, want 3/2", jmt.Len(), jmt.Live())
	}
	if jmt.Latest(12345) != nil {
		t.Error("missing key returned an entry")
	}
}

func TestLogTypeString(t *testing.T) {
	if LogFull.String() != "FULL" || LogPartial.String() != "PARTIAL" || LogMerged.String() != "MERGED" {
		t.Error("log type names wrong")
	}
	if LogType(99).String() != "?" {
		t.Error("unknown log type should render ?")
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("test config rejected: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Strategy = numStrategies },
		func(c *Config) { c.Keys = 0 },
		func(c *Config) { c.Sizer = nil },
		func(c *Config) { c.JournalHalfBytes = 100 },
		func(c *Config) { c.JournalSoftFrac = 0 },
		func(c *Config) { c.JournalSoftFrac = 1.5 },
		func(c *Config) { c.CompressRatio = 0 },
		func(c *Config) { c.CheckpointInterval = 0 },
	}
	for i, mut := range muts {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunSpecValidate(t *testing.T) {
	fits := func(payload int) bool { return payload <= 4096 }
	good := RunSpec{Threads: 4, TotalQueries: 100, Mix: workload.WorkloadA}
	if err := good.Validate(10, fits); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	replay := &workload.Trace{Ops: []workload.Op{
		{Kind: workload.OpRead, Key: 9, Size: 1 << 20},
		{Kind: workload.OpUpdate, Key: 0, Size: 4096},
		{Kind: workload.OpDelete, Key: 1, Size: 1 << 20}, // logs a tombstone
		{Kind: workload.OpScan, Key: 2, Size: 1, ScanLen: workload.MaxScanLen},
	}}
	if err := (RunSpec{Threads: 1, TotalQueries: 1, Trace: replay}).Validate(10, fits); err != nil {
		t.Fatalf("in-range trace rejected: %v", err)
	}
	trace := func(op workload.Op) *workload.Trace { return &workload.Trace{Ops: []workload.Op{op}} }
	bad := []RunSpec{
		{Threads: 0, TotalQueries: 100, Mix: workload.WorkloadA},
		{Threads: 1, TotalQueries: 0, Mix: workload.WorkloadA},
		{Threads: 1, TotalQueries: 10, Mix: workload.Mix{ReadPct: 10}},
		{Threads: 1, TotalQueries: 10, Trace: &workload.Trace{}},
		{Threads: 1, TotalQueries: 10, Trace: trace(workload.Op{Kind: workload.OpRead, Key: 10, Size: 1})},
		{Threads: 1, TotalQueries: 10, Trace: trace(workload.Op{Kind: workload.OpDelete + 1, Key: 1, Size: 1})},
		{Threads: 1, TotalQueries: 10, Trace: trace(workload.Op{Kind: workload.OpRead, Key: 1})},
		{Threads: 1, TotalQueries: 10, Trace: trace(workload.Op{Kind: workload.OpUpdate, Key: 1, Size: -100})},
		{Threads: 1, TotalQueries: 10, Trace: trace(workload.Op{Kind: workload.OpReadModifyWrite, Key: 1, Size: 4097})},
		{Threads: 1, TotalQueries: 10, Trace: trace(workload.Op{Kind: workload.OpInsert, Key: 1, Size: 4097})},
	}
	for i, rs := range bad {
		if err := rs.Validate(10, fits); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}
