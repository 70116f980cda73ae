package stats

import (
	"fmt"
	"io"
	"strings"
)

// DefaultTimelineCap bounds the rows a Timeline retains. Far above what any
// rendered figure resolves, yet small enough that a multi-hour trace run
// sampling every few milliseconds stays at a fixed memory footprint.
const DefaultTimelineCap = 4096

// Timeline collects fixed-interval samples of named values over a run —
// windowed throughput, in-flight checkpoint flags, backlog depths — for
// rendering how a metric evolves (e.g. the throughput dip a baseline
// checkpoint causes). Samples are appended by the simulation at virtual
// times; rendering is offline.
//
// Memory is bounded: when the retained rows reach the cap, adjacent pairs
// merge (value mean, window-end timestamp) and the timeline halves its
// resolution, folding every subsequent pair of input samples into one row.
// Runs shorter than the cap keep every sample exactly.
type Timeline struct {
	names []string
	index map[string]int
	rows  []timelineRow
	cap   int // retained-row bound (even); reaching it halves resolution
	// stride is how many input samples fold into one retained row; it
	// doubles at every downsample. acc/accAt/accN hold the bucket being
	// filled: running value sums, the latest sample time, samples so far.
	stride int
	acc    []float64
	accAt  uint64
	accN   int
}

type timelineRow struct {
	atNS uint64
	vals []float64
}

// NewTimeline creates a timeline for the named series, retaining at most
// DefaultTimelineCap rows.
func NewTimeline(names ...string) *Timeline {
	t := &Timeline{
		names:  names,
		index:  make(map[string]int, len(names)),
		cap:    DefaultTimelineCap,
		stride: 1,
		acc:    make([]float64, len(names)),
	}
	for i, n := range names {
		t.index[n] = i
	}
	return t
}

// Bound sets the retained-row cap (rounded up to an even minimum of 2).
// Call before sampling; lowering the cap mid-run only takes effect at the
// next completed row.
func (t *Timeline) Bound(cap int) {
	if cap < 2 {
		cap = 2
	}
	if cap%2 == 1 {
		cap++
	}
	t.cap = cap
}

// Names returns the series names.
func (t *Timeline) Names() []string { return t.names }

// Sample folds one row of values at virtual time atNS into the timeline.
// Values must be in series order (length-checked).
func (t *Timeline) Sample(atNS uint64, vals ...float64) {
	if len(vals) != len(t.names) {
		panic(fmt.Sprintf("stats: timeline sample has %d values, want %d", len(vals), len(t.names)))
	}
	for i, v := range vals {
		t.acc[i] += v
	}
	t.accAt = atNS
	t.accN++
	if t.accN >= t.stride {
		t.flushAcc()
	}
}

// flushAcc completes the current bucket as one retained row and downsamples
// if the cap was reached.
func (t *Timeline) flushAcc() {
	row := timelineRow{atNS: t.accAt, vals: make([]float64, len(t.acc))}
	n := float64(t.accN)
	for i, sum := range t.acc {
		row.vals[i] = sum / n
		t.acc[i] = 0
	}
	t.accN = 0
	t.rows = append(t.rows, row)
	for len(t.rows) >= t.cap {
		t.downsample()
	}
}

// downsample merges adjacent row pairs in place — values average, the
// window-end timestamp survives — and doubles the input stride.
func (t *Timeline) downsample() {
	half := len(t.rows) / 2
	for i := 0; i < half; i++ {
		a, b := t.rows[2*i], t.rows[2*i+1]
		for j := range a.vals {
			a.vals[j] = (a.vals[j] + b.vals[j]) / 2
		}
		a.atNS = b.atNS
		t.rows[i] = a
	}
	if len(t.rows)%2 == 1 { // odd trailing row (cap lowered mid-run) carries over
		t.rows[half] = t.rows[len(t.rows)-1]
		half++
	}
	t.rows = t.rows[:half]
	t.stride *= 2
}

// Len returns the number of observable rows, including the partially filled
// bucket if any samples are pending in it.
func (t *Timeline) Len() int {
	n := len(t.rows)
	if t.accN > 0 {
		n++
	}
	return n
}

// At returns the i-th row (window-end time in ns, values in series order).
// The last row may be a partially filled bucket, reported at its running
// mean.
func (t *Timeline) At(i int) (uint64, []float64) {
	if i < len(t.rows) {
		return t.rows[i].atNS, t.rows[i].vals
	}
	vals := make([]float64, len(t.acc))
	n := float64(t.accN)
	for j, sum := range t.acc {
		vals[j] = sum / n
	}
	return t.accAt, vals
}

// WriteCSV emits the timeline as CSV with a time_s column first.
func (t *Timeline) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time_s,%s\n", strings.Join(t.names, ",")); err != nil {
		return err
	}
	for i, n := 0, t.Len(); i < n; i++ {
		atNS, vals := t.At(i)
		cells := make([]string, 0, len(vals)+1)
		cells = append(cells, fmt.Sprintf("%.6f", float64(atNS)/1e9))
		for _, v := range vals {
			cells = append(cells, fmt.Sprintf("%g", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders one series as a compact unicode sparkline (reporting
// aid for terminal output).
func (t *Timeline) Sparkline(name string, width int) (string, error) {
	idx, ok := t.index[name]
	if !ok {
		return "", fmt.Errorf("stats: timeline has no series %q", name)
	}
	n := t.Len()
	if n == 0 {
		return "", nil
	}
	if width <= 0 || width > n {
		width = n
	}
	// bucket-average down to width points
	buckets := make([]float64, width)
	counts := make([]int, width)
	for i := 0; i < n; i++ {
		_, vals := t.At(i)
		b := i * width / n
		buckets[b] += vals[idx]
		counts[b]++
	}
	min, max := 0.0, 0.0
	first := true
	for i := range buckets {
		if counts[i] > 0 {
			buckets[i] /= float64(counts[i])
			if first || buckets[i] < min {
				min = buckets[i]
			}
			if first || buckets[i] > max {
				max = buckets[i]
			}
			first = false
		}
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for i := range buckets {
		if counts[i] == 0 {
			b.WriteRune(' ')
			continue
		}
		lvl := 0
		if max > min {
			lvl = int((buckets[i] - min) / (max - min) * float64(len(levels)-1))
		}
		b.WriteRune(levels[lvl])
	}
	return b.String(), nil
}
