package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	runtime.MemProfileRate = 64 << 10 // as the CLI sets it for traced runs
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkFile is the part of BENCHMARK.json the benchmark's tables must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, file, table []metricDef) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(file), len(table))
			return
		}
		for i, d := range file {
			want := table[i]
			if d.Name != want.Name || d.Unit != want.Unit || d.Better != want.Better || d.Bound != want.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, d, want)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestWorkloadsAtSmallScale runs every workload, traced, at 5% of its op
// counts — the smallest scale whose windows still span checkpoints — and
// checks the output contract and the workload design.
func TestWorkloadsAtSmallScale(t *testing.T) {
	results := map[string]*result{}
	for i := range workloads {
		w := &workloads[i]
		outdir := t.TempDir()
		res, err := runWorkload(w, options{seed: 1, scale: 0.05, trace: true, outdir: outdir})
		if err != nil {
			t.Fatal(err)
		}
		results[w.name] = res
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d: %v", w.name, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		for _, d := range slices.Concat(endToEnd, perLayer) {
			m, ok := res.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s not reported", w.name, d.Name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", w.name, d.Name, m.Value)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
			}
		}
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		for name := range res.Metrics {
			if _, ok := findDef(name); !ok {
				t.Errorf("%s: %s is reported but not in the metric tables", w.name, name)
			}
		}

		// Every profile sample lands in exactly one layer.
		for _, kind := range []struct{ file, typ string }{{"cpu", "cpu"}, {"allocs", "alloc_space"}} {
			data, err := os.ReadFile(filepath.Join(outdir, w.name+"-seed1."+kind.file+".pprof"))
			if err != nil {
				t.Fatal(err)
			}
			p, err := parseProfile(data)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := p.valueIndex(kind.typ)
			if err != nil {
				t.Fatal(err)
			}
			var total, sum int64
			for _, s := range p.samples {
				total += s.values[idx]
			}
			byL, err := byLayer(p, nil, kind.typ)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range byL {
				sum += v
			}
			if math.Abs(float64(sum-total)) > 0.01*float64(total) {
				t.Errorf("%s %s profile: layers sum to %d of %d", w.name, kind.file, sum, total)
			}
		}
		if _, err := os.Stat(filepath.Join(outdir, w.name+"-seed1.trace.json")); err != nil {
			t.Error(err)
		}
	}

	// The workload design: each layer is idle where the design says so.
	for name, res := range results {
		zero := func(metric string) {
			if v := res.Metrics[metric].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0", name, metric, v)
			}
		}
		if name != "lsm-a-zipf" {
			zero("cpu.lsm_ns_per_op")
			zero("lsm.compactions_per_kop")
		}
		if name != "shard-open-poisson" {
			zero("cpu.shard_ns_per_op")
		}
		if name != "journal-a-uniform-dftl" {
			for _, m := range []string{"ftl.cmt_hit_ratio", "ftl.cmt_evictions_per_op", "ftl.trans_reads_per_kop", "ftl.trans_flushes_per_kop"} {
				zero(m)
			}
		}
		if name == "journal-wo-uniform-baseline" {
			zero("ftl.remaps_per_op")
			zero("ssd.remap_entries_per_op")
		}
	}
	for _, c := range []struct{ workload, metric string }{
		{"journal-a-uniform-dftl", "ftl.cmt_hit_ratio"},
		{"journal-a-zipf", "ftl.remaps_per_op"},
		{"lsm-a-zipf", "lsm.flushes_per_kop"},
		{"shard-open-poisson", "shard.peak_queue_max"},
	} {
		if v := results[c.workload].Metrics[c.metric].Value; v <= 0 {
			t.Errorf("%s: %s = %v, want > 0", c.workload, c.metric, v)
		}
	}
}

func TestWarmupAndWindowUseDistinctSeeds(t *testing.T) {
	owner := map[int64]string{}
	for seed := int64(1); seed <= 50; seed++ {
		warm, window := traceSeeds(seed, 8)
		for i, s := range append(warm, window) {
			if prev, ok := owner[s]; ok {
				t.Fatalf("seed %d stream %d reuses trace seed %d of %s", seed, i, s, prev)
			}
			owner[s] = "another stream"
		}
	}
	w, err := findWorkload("journal-a-zipf")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.inputs(w.config(1), 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	n := min(len(in.window.Ops), len(in.warmup[0].Ops))
	if slices.Equal(in.window.Ops[:n], in.warmup[0].Ops[:n]) {
		t.Error("the measured window replays the warm-up stream")
	}
}

func TestCLIOutputContract(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		code := cli([]string{"-workload", "journal-wo-uniform-baseline", "-scale", "0.01", "-seconds", "0", "-trace", trace}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		if keys := slices.Sorted(maps.Keys(last)); !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Fatalf("trace %s: summary keys %v", trace, keys)
		}
		var metrics map[string]metric
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("trace %s: %d metrics in the summary, want %d", trace, len(metrics), len(want))
		}
		for _, d := range want {
			if metrics[d.Name].Unit != d.Unit {
				t.Errorf("trace %s: summary lacks %s", trace, d.Name)
			}
		}
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) == 0 || f[0] != "#" && (len(f) != 4 || !nameRE.MatchString(f[1])) {
				t.Errorf("malformed metric line %q", l)
			}
		}
	}
	for _, args := range [][]string{{"-trace", "2"}, {"-workload", "nope"}, {"-seed", "0"}, {"extra"}} {
		if code := cli(args, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v, %v", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	faster := metricDef{Name: "x", Better: "higher", Bound: 0.1}
	lower := metricDef{Name: "y", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		d            metricDef
		base, change []float64
		want         string
	}{
		{faster, []float64{100, 101, 99, 100}, []float64{100, 100, 101, 99}, "unchanged"},
		{faster, []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, "improved"},
		{faster, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, "regressed"},
		{faster, []float64{100, 101, 99, 100}, []float64{95, 96, 94, 95}, "unchanged"},
		{faster, []float64{60, 140, 100, 80, 120}, []float64{70, 60, 80, 65, 75}, "unresolved"},
		// Every change run is better, but by less than the base's spread.
		{faster, []float64{60, 140, 100, 80, 120}, []float64{150, 160, 145, 155, 158}, "unchanged"},
		{faster, []float64{60, 140, 100, 80, 120}, []float64{170, 180, 190, 175, 185}, "improved"},
		{lower, []float64{5, 5, 5}, []float64{5, 5, 5}, "unchanged"},
		{lower, []float64{5, 5, 5}, []float64{6, 6, 6}, "regressed"},
		{lower, []float64{5, 5, 5}, []float64{4, 4, 4}, "improved"},
		// A zero base compares on absolute values: 0.05 is within the bound.
		{lower, []float64{0, 0, 0}, []float64{0.05, 0.05, 0.05}, "unchanged"},
		{lower, []float64{0, 0, 0}, []float64{0.5, 0.5, 0.5}, "regressed"},
	} {
		if got := verdict(c.d, c.base, c.change); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Better, c.base, c.change, got, c.want)
		}
	}
}

func TestCompareCmd(t *testing.T) {
	dir := t.TempDir()
	run := func(seed int64, kqps float64) *result {
		return &result{Workload: "journal-a-zipf", Seed: seed, Correct: true, Metrics: map[string]metric{
			"kqps": {Value: kqps, Unit: "kqps"},
		}}
	}
	base, change := filepath.Join(dir, "base.json"), filepath.Join(dir, "change.json")
	if err := writeResults(base, []*result{run(1, 60), run(2, 61), run(3, 59)}); err != nil {
		t.Fatal(err)
	}
	if err := writeResults(change, []*result{run(2, 40), run(1, 39), run(3, 41)}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareCmd([]string{base, change}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 33%% kqps drop is not reported as regressed:\n%s", out.String())
	}
	out.Reset()
	if err := compareCmd([]string{base + "," + base, base}, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); strings.Contains(s, "regressed") || strings.Contains(s, "improved") {
		t.Errorf("a side compared with itself moved:\n%s", s)
	}
	if err := compareCmd([]string{base}, &out); err == nil {
		t.Error("one side compared with nothing")
	}
}
