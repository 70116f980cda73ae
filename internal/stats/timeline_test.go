package stats

import (
	"strings"
	"testing"
)

func TestTimelineSampleAndSeries(t *testing.T) {
	tl := NewTimeline("qps", "ckpt")
	tl.Sample(0, 100, 0)
	tl.Sample(1e9, 120, 1)
	tl.Sample(2e9, 90, 0)
	if tl.Len() != 3 {
		t.Fatalf("Len = %d", tl.Len())
	}
	at, vals := tl.At(1)
	if at != 1e9 || vals[0] != 120 || vals[1] != 1 {
		t.Errorf("At(1) = %d %v", at, vals)
	}
	if at, vals := tl.At(2); at != 2e9 || vals[0] != 90 {
		t.Errorf("At(2) = %d %v", at, vals)
	}
	if names := tl.Names(); len(names) != 2 || names[0] != "qps" {
		t.Errorf("Names = %v", names)
	}
}

func TestTimelineSampleArityPanics(t *testing.T) {
	tl := NewTimeline("a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong arity did not panic")
		}
	}()
	tl.Sample(0, 1)
}

func TestTimelineCSV(t *testing.T) {
	tl := NewTimeline("x")
	tl.Sample(5e8, 42)
	var sb strings.Builder
	if err := tl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "time_s,x\n") {
		t.Errorf("CSV header wrong: %q", out)
	}
	if !strings.Contains(out, "0.500000,42") {
		t.Errorf("CSV row wrong: %q", out)
	}
}

func TestSparkline(t *testing.T) {
	tl := NewTimeline("v")
	for i := 0; i < 64; i++ {
		tl.Sample(uint64(i)*1e6, float64(i%8))
	}
	sp, err := tl.Sparkline("v", 16)
	if err != nil {
		t.Fatal(err)
	}
	if len([]rune(sp)) != 16 {
		t.Errorf("sparkline width = %d, want 16", len([]rune(sp)))
	}
	// Flat series renders the lowest level everywhere.
	flat := NewTimeline("v")
	flat.Sample(0, 5)
	flat.Sample(1, 5)
	sp2, err := flat.Sparkline("v", 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp2 != "▁▁" {
		t.Errorf("flat sparkline = %q", sp2)
	}
	// Empty series renders empty.
	empty := NewTimeline("v")
	if sp3, _ := empty.Sparkline("v", 8); sp3 != "" {
		t.Errorf("empty sparkline = %q", sp3)
	}
	if _, err := tl.Sparkline("nope", 8); err == nil {
		t.Error("unknown series accepted")
	}
}
