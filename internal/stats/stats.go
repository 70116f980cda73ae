// Package stats provides the measurement primitives used across the
// Check-In reproduction: log-bucketed latency histograms with accurate tail
// percentiles (p99.9 / p99.99 are headline numbers in the paper), and a
// bounded timeline of periodic samples for throughput-over-time output.
package stats

import (
	"math"
	"math/bits"
)

// Histogram is a log-bucketed histogram of non-negative integer samples
// (typically latencies in nanoseconds). Relative error per bucket is bounded
// by 1/subBuckets (~1.6 %), which is far finer than the effects the paper
// reports. The zero value is ready to use.
type Histogram struct {
	counts [64][subBuckets]uint64
	// rowTotal[major] is the sample count of the whole major row — an
	// occupancy index letting percentile scans skip empty rows (and rows
	// entirely below the target rank) without touching their 64 buckets.
	rowTotal [64]uint64
	total    uint64
	sum      uint64
	min      uint64
	max      uint64
}

const subBuckets = 64

// Record adds one sample.
func (h *Histogram) Record(v uint64) { h.RecordN(v, 1) }

// RecordN adds n identical samples.
func (h *Histogram) RecordN(v uint64, n uint64) {
	if n == 0 {
		return
	}
	major, minor := bucketOf(v)
	h.counts[major][minor] += n
	h.rowTotal[major] += n
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total += n
	h.sum += v * n
}

func bucketOf(v uint64) (major, minor int) {
	if v < subBuckets {
		return 0, int(v)
	}
	major = bits.Len64(v) - 6 // so that values < 64 land in major 0
	minor = int(v >> uint(major) & (subBuckets - 1))
	return major, minor
}

// bucketLow returns the lowest value that maps into bucket (major, minor).
// For major >= 1 the minor index already contains the implied top bit
// (minor is always in [32, 64) there), so the low edge is minor << major.
func bucketLow(major, minor int) uint64 {
	return uint64(minor) << uint(major)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest recorded sample (0 if empty).
func (h *Histogram) Min() uint64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 if empty).
func (h *Histogram) Max() uint64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Percentile returns an upper-bound estimate of the p-th percentile,
// p in (0, 100]. Empty histograms return 0.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for major := 0; major < 64; major++ {
		rt := h.rowTotal[major]
		if rt == 0 || seen+rt < rank {
			seen += rt // whole row empty or below the rank: skip its buckets
			continue
		}
		for minor := 0; minor < subBuckets; minor++ {
			c := h.counts[major][minor]
			if c == 0 {
				continue
			}
			seen += c
			if seen >= rank {
				hi := bucketHigh(major, minor)
				if hi > h.max {
					hi = h.max
				}
				return hi
			}
		}
	}
	return h.max
}

// CountAbove returns the number of recorded samples whose bucket lies
// entirely above threshold — the streaming SLO-violation counter (samples
// over a per-tenant latency target). Buckets straddling the threshold count
// as compliant, so the result is a lower bound with the histogram's ~1.6 %
// bucket resolution; SLO targets are orders of magnitude coarser.
func (h *Histogram) CountAbove(threshold uint64) uint64 {
	if h.total == 0 || threshold >= h.max {
		return 0
	}
	var above uint64
	tMajor, _ := bucketOf(threshold)
	for major := tMajor; major < 64; major++ {
		if h.rowTotal[major] == 0 {
			continue
		}
		for minor := 0; minor < subBuckets; minor++ {
			if c := h.counts[major][minor]; c != 0 && bucketLow(major, minor) > threshold {
				above += c
			}
		}
	}
	// Rows above tMajor were all counted; rows below it are all compliant.
	return above
}

// Percentiles returns Percentile(p) for every p in ps in a single pass over
// the buckets; ps must be non-decreasing. Each element is exactly what the
// corresponding individual Percentile call would return.
func (h *Histogram) Percentiles(ps ...float64) []uint64 {
	out := make([]uint64, len(ps))
	if h.total == 0 {
		return out
	}
	ranks := make([]uint64, len(ps))
	for i, p := range ps {
		if i > 0 && p < ps[i-1] {
			panic("stats: Percentiles arguments must be non-decreasing")
		}
		if p <= 0 {
			out[i] = h.Min() // rank 0 marks an already-answered slot
			continue
		}
		if p > 100 {
			p = 100
		}
		r := uint64(math.Ceil(p / 100 * float64(h.total)))
		if r == 0 {
			r = 1
		}
		ranks[i] = r
	}
	i := 0
	for i < len(ps) && ranks[i] == 0 {
		i++
	}
	var seen uint64
	for major := 0; major < 64 && i < len(ps); major++ {
		rt := h.rowTotal[major]
		if rt == 0 || seen+rt < ranks[i] {
			seen += rt
			continue
		}
		for minor := 0; minor < subBuckets && i < len(ps); minor++ {
			c := h.counts[major][minor]
			if c == 0 {
				continue
			}
			seen += c
			for i < len(ps) && seen >= ranks[i] {
				hi := bucketHigh(major, minor)
				if hi > h.max {
					hi = h.max
				}
				out[i] = hi
				i++
			}
		}
	}
	for ; i < len(ps); i++ {
		out[i] = h.max
	}
	return out
}

// bucketHigh returns the highest value that maps into bucket (major, minor).
func bucketHigh(major, minor int) uint64 {
	if major == 0 {
		return uint64(minor)
	}
	return bucketLow(major, minor) + (uint64(1) << uint(major)) - 1
}

// Merge adds all samples from o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.total == 0 {
		return
	}
	for major := range o.counts {
		if o.rowTotal[major] == 0 {
			continue
		}
		for minor, c := range o.counts[major] {
			h.counts[major][minor] += c
		}
		h.rowTotal[major] += o.rowTotal[major]
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Reset discards all samples.
func (h *Histogram) Reset() { *h = Histogram{} }
