package stats

import (
	"testing"
)

// lcg is a tiny deterministic generator for test sample streams.
func lcg(state *uint64) uint64 {
	*state = *state*6364136223846793005 + 1442695040888963407
	return *state
}

func TestPercentilesMatchPercentile(t *testing.T) {
	var h Histogram
	state := uint64(7)
	for i := 0; i < 50_000; i++ {
		// mixed magnitudes: exercise many major rows, leave others empty
		v := lcg(&state)
		switch i % 3 {
		case 0:
			v %= 100
		case 1:
			v %= 1_000_000
		default:
			v %= 10_000_000_000
		}
		h.Record(v)
	}
	ps := []float64{0, 0.001, 1, 25, 50, 50, 90, 99, 99.9, 99.99, 100, 200}
	got := h.Percentiles(ps...)
	for i, p := range ps {
		if want := h.Percentile(p); got[i] != want {
			t.Errorf("Percentiles[%d] (p=%v) = %d, want Percentile(p) = %d", i, p, got[i], want)
		}
	}
}

func TestPercentilesEmptyAndUnsorted(t *testing.T) {
	var h Histogram
	got := h.Percentiles(50, 99)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("empty histogram percentiles = %v", got)
	}
	h.Record(10)
	defer func() {
		if recover() == nil {
			t.Error("descending percentile arguments did not panic")
		}
	}()
	h.Percentiles(99, 50)
}

func TestOccupancySurvivesMerge(t *testing.T) {
	var a, b, all Histogram
	state := uint64(42)
	for i := 0; i < 10_000; i++ {
		v := lcg(&state) % 5_000_000
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(&b)
	for _, p := range []float64{50, 90, 99, 99.9, 100} {
		if got, want := a.Percentile(p), all.Percentile(p); got != want {
			t.Errorf("merged Percentile(%v) = %d, want %d", p, got, want)
		}
	}
	a.Reset()
	if a.Percentile(50) != 0 {
		t.Error("reset histogram percentile not 0")
	}
}

func TestTimelineDownsampleMerges(t *testing.T) {
	tl := NewTimeline("v")
	tl.Bound(4)
	for i := 1; i <= 8; i++ {
		tl.Sample(uint64(i)*10, float64(i))
	}
	// Cap 4: rows halve at 4 (stride 2) and again at 4 (stride 4), so the
	// eight inputs collapse to two rows of four samples each, stamped with
	// their window-end times.
	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
	at0, v0 := tl.At(0)
	at1, v1 := tl.At(1)
	if at0 != 40 || v0[0] != 2.5 {
		t.Errorf("row 0 = (%d, %v), want (40, [2.5])", at0, v0)
	}
	if at1 != 80 || v1[0] != 6.5 {
		t.Errorf("row 1 = (%d, %v), want (80, [6.5])", at1, v1)
	}
}

func TestTimelinePartialBucketVisible(t *testing.T) {
	tl := NewTimeline("v")
	tl.Bound(4)
	for i := 1; i <= 10; i++ { // stride is 4 after 8 samples; 9,10 are pending
		tl.Sample(uint64(i)*10, float64(i))
	}
	if tl.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (2 complete + 1 partial)", tl.Len())
	}
	at, v := tl.At(2)
	if at != 100 || v[0] != 9.5 {
		t.Errorf("partial row = (%d, %v), want (100, [9.5])", at, v)
	}
}

func TestTimelineFootprintBounded(t *testing.T) {
	tl := NewTimeline("a", "b", "c", "d")
	const samples = 2_000_000 // a multi-hour trace at millisecond sampling
	for i := 0; i < samples; i++ {
		tl.Sample(uint64(i), float64(i%100), 1, 2, 3)
	}
	if tl.Len() > DefaultTimelineCap {
		t.Errorf("Len = %d exceeds cap %d", tl.Len(), DefaultTimelineCap)
	}
	if len(tl.rows) > tl.cap {
		t.Errorf("retained rows %d exceed cap %d", len(tl.rows), tl.cap)
	}
	// Downsampling must actually have engaged, not silently dropped data:
	// the surviving rows still span the whole run.
	if tl.Len() < DefaultTimelineCap/2 {
		t.Errorf("Len = %d, want >= %d after saturation", tl.Len(), DefaultTimelineCap/2)
	}
	last, _ := tl.At(tl.Len() - 1)
	if last != samples-1 {
		t.Errorf("last window ends at %d, want %d", last, samples-1)
	}
	// Constant series stay exact through arbitrary pairwise merges.
	_, v := tl.At(tl.Len() / 2)
	if v[1] != 1 || v[2] != 2 || v[3] != 3 {
		t.Errorf("constant series drifted: %v", v)
	}
}

func TestTimelineUncappedBehaviorUnchanged(t *testing.T) {
	// Below the cap every sample is retained verbatim (stride 1).
	tl := NewTimeline("v")
	for i := 0; i < 100; i++ {
		tl.Sample(uint64(i)*7, float64(i)*1.25)
	}
	if tl.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tl.Len())
	}
	for i := 0; i < 100; i++ {
		at, v := tl.At(i)
		if at != uint64(i)*7 || v[0] != float64(i)*1.25 {
			t.Fatalf("row %d = (%d, %v)", i, at, v)
		}
	}
}
