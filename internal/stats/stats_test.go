package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram returned non-zero stats")
	}
	if h.Percentile(99) != 0 {
		t.Error("empty histogram percentile should be 0")
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below 64 are recorded exactly (bucket width 1).
	var h Histogram
	for v := uint64(0); v < 64; v++ {
		h.Record(v)
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("min/max = %d/%d, want 0/63", h.Min(), h.Max())
	}
	if got := h.Percentile(50); got != 31 && got != 32 {
		t.Errorf("p50 = %d, want ~32", got)
	}
	if got := h.Percentile(100); got != 63 {
		t.Errorf("p100 = %d, want 63", got)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.RecordN(5000, 1000)
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	for _, p := range []float64{1, 50, 99, 99.99, 100} {
		got := h.Percentile(p)
		if got < 5000 || got > 5000+5000/32 {
			t.Errorf("p%v = %d, want within 3%% above 5000", p, got)
		}
	}
	if h.Mean() != 5000 {
		t.Errorf("Mean = %v, want 5000", h.Mean())
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	// Compare against exact percentiles of a stored sample set.
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	vals := make([]uint64, 100000)
	for i := range vals {
		// Log-uniform over ~6 decades, like latencies.
		v := uint64(math.Exp(rng.Float64()*13)) + 1
		vals[i] = v
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
		rank := int(math.Ceil(p/100*float64(len(vals)))) - 1
		exact := vals[rank]
		got := h.Percentile(p)
		// Upper-bound estimate within one bucket (~3.2 % relative).
		if got < exact || float64(got) > float64(exact)*1.04+1 {
			t.Errorf("p%v = %d, exact %d (ratio %.4f)", p, got, exact, float64(got)/float64(exact))
		}
	}
}

func TestHistogramMinMaxSumMean(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{10, 20, 30, 40} {
		h.Record(v)
	}
	if h.Min() != 10 || h.Max() != 40 || h.Sum() != 100 || h.Mean() != 25 {
		t.Errorf("min/max/sum/mean = %d/%d/%d/%v", h.Min(), h.Max(), h.Sum(), h.Mean())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(100)
	a.Record(200)
	b.Record(50)
	b.Record(400)
	a.Merge(&b)
	if a.Count() != 4 || a.Min() != 50 || a.Max() != 400 || a.Sum() != 750 {
		t.Errorf("after merge: count=%d min=%d max=%d sum=%d", a.Count(), a.Min(), a.Max(), a.Sum())
	}
	var empty Histogram
	a.Merge(&empty) // must be a no-op
	if a.Count() != 4 {
		t.Error("merging an empty histogram changed the count")
	}
	empty.Merge(&a)
	if empty.Count() != 4 || empty.Min() != 50 {
		t.Error("merging into empty histogram lost state")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(123456)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset did not clear the histogram")
	}
}

func TestHistogramPercentileEdges(t *testing.T) {
	var h Histogram
	h.Record(1000)
	h.Record(2000)
	if got := h.Percentile(0); got != 1000 {
		t.Errorf("p0 = %d, want min", got)
	}
	if got := h.Percentile(200); got < 2000 {
		t.Errorf("p>100 = %d, want >= max bucket", got)
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	// Property: percentile is monotone non-decreasing in p, and every
	// recorded value is within [Min, Max].
	err := quick.Check(func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Record(uint64(v))
		}
		prev := uint64(0)
		for p := 1.0; p <= 100; p += 7.3 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Percentile(100) >= h.Max() || h.Percentile(100) <= h.Max()
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestHistogramNeverUnderestimatesUpperBound(t *testing.T) {
	// Property: Percentile(100) is >= every recorded value's bucket low,
	// and capped at the true max.
	err := quick.Check(func(raw []uint64) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		var max uint64
		for _, v := range raw {
			v %= 1 << 40
			h.Record(v)
			if v > max {
				max = v
			}
		}
		return h.Percentile(100) == max
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Property: every value falls inside [bucketLow, bucketHigh] of its
	// own bucket.
	err := quick.Check(func(v uint64) bool {
		v %= 1 << 50
		major, minor := bucketOf(v)
		return bucketLow(major, minor) <= v && v <= bucketHigh(major, minor)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}
