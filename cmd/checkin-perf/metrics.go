package main

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"time"
)

// metricDef describes one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// virtual marks metrics derived from virtual time and simulator
	// counters: deterministic for a seed, so every pass must agree on them.
	virtual bool
}

// endToEnd are the metrics a user of the system sees. Wall-clock metrics
// measure the simulator; virtual ones the simulated key-value store. Every
// one applies to every workload and is never 0.
var endToEnd = []metricDef{
	{Name: "sim_kops_per_s", Unit: "kops/s", Better: "higher", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.1},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.1},
	{Name: "kqps", Unit: "kqps", Better: "higher", Bound: 0.2, virtual: true},
	{Name: "lat_mean_us", Unit: "us", Better: "lower", Bound: 0.2, virtual: true},
}

// perLayer are the traced run's metrics of single layers. Layers are the
// repository's modules (see layers); "op" is one query of the measured
// window.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(virtual bool, better, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better, virtual: virtual})
		}
	}
	add(false, "lower", "ns/op", "cpu.total_ns_per_op")
	for _, l := range layers {
		add(false, "lower", "ns/op", "cpu."+l+"_ns_per_op")
	}
	add(false, "lower", "B/op", "alloc.total_bytes_per_op")
	for _, l := range layers {
		add(false, "lower", "B/op", "alloc."+l+"_bytes_per_op")
	}
	add(false, "lower", "us", "host.probe_round_us")
	add(true, "lower", "1/op", "sim.events_per_op")
	add(false, "lower", "ns", "sim.wall_ns_per_event")
	add(false, "lower", "frac", "runtime.gc_cpu_frac")
	add(false, "lower", "1/Mop", "runtime.gc_cycles_per_mop")
	add(true, "lower", "1/op", "nand.reads_per_op", "nand.programs_per_op")
	add(true, "lower", "1/kop", "nand.erases_per_kop")
	add(true, "lower", "frac", "nand.die_util", "nand.channel_util")
	add(true, "lower", "ratio", "nand.flash_amp")
	add(true, "lower", "1/kop", "ftl.reclaims_per_kop")
	add(true, "lower", "1/op", "ftl.gc_migrated_slots_per_op", "ftl.redundant_writes_per_op",
		"ftl.remaps_per_op", "ftl.remap_rmws_per_op", "ftl.host_rmw_reads_per_op")
	add(true, "higher", "frac", "ftl.cmt_hit_ratio")
	add(true, "lower", "1/op", "ftl.cmt_evictions_per_op")
	add(true, "lower", "1/kop", "ftl.trans_reads_per_kop", "ftl.trans_flushes_per_kop")
	add(true, "lower", "1/op", "ssd.commands_per_op")
	add(true, "higher", "frac", "ssd.cache_hit_ratio")
	add(true, "lower", "us", "ssd.queue_wait_mean_us")
	add(true, "lower", "ratio", "ssd.io_amp")
	add(true, "lower", "1/op", "ssd.remap_entries_per_op", "ssd.cow_pairs_per_op")
	add(true, "lower", "us", "engine.lat_p50_us", "engine.lat_p999_us")
	add(true, "lower", "ms", "engine.ckpt_mean_ms", "engine.ckpt_max_ms")
	add(true, "lower", "us", "engine.read_p50_us", "engine.read_p999_us", "engine.write_p50_us",
		"engine.write_p999_us", "engine.read_p999_in_ckpt_us", "engine.write_p999_in_ckpt_us")
	add(true, "lower", "ratio", "engine.journal_space_overhead")
	add(true, "lower", "1/kop", "lsm.compactions_per_kop")
	add(true, "lower", "ratio", "lsm.compaction_bytes_per_user_byte")
	add(true, "lower", "1/kop", "lsm.flushes_per_kop")
	add(true, "lower", "count", "shard.peak_queue_max")
	add(true, "lower", "ratio", "shard.done_imbalance")
	add(true, "lower", "%", "shard.slo_miss_pct")
	add(false, "lower", "s", "span.open_s", "span.load_s", "span.warmup_s", "span.run_s", "span.verify_s")
	add(false, "lower", "frac", "trace.overhead_frac")
	return defs
}()

func findDef(name string) (metricDef, bool) {
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// median returns the median of xs (the mean of the middle two for an even
// count), as Python's statistics.median does.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func medianOf(passes []*pass, f func(*pass) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// calibrated converts wall time d, of which probe rounds took probe, to
// seconds on a host that runs one probe round in calNominal (see
// calibrate.go).
func calibrated(d, probe, round time.Duration) float64 {
	return (d - probe).Seconds() * float64(calNominal) / float64(round)
}

// runMetrics assembles a run's metrics: the deterministic ones from the
// first pass, wall-clock ones as medians over the untraced passes, and the
// per-layer CPU and allocation costs from the traced pass when there is one.
func runMetrics(passes []*pass, traced *pass, rssMiB float64) map[string]float64 {
	v := maps.Clone(passes[0].virt)
	ops := float64(max(passes[0].ops, 1))
	med := func(f func(*pass) float64) float64 { return medianOf(passes, f) }
	run := med(func(p *pass) float64 { return calibrated(p.run, p.runProbe, p.calRun) })
	v["sim_kops_per_s"] = ops / run / 1e3
	v["setup_s"] = med(func(p *pass) float64 { return calibrated(p.setup(), p.setupProbe, p.calSetup) })
	v["allocs_per_op"] = med(func(p *pass) float64 { return float64(p.mallocs) }) / ops
	v["peak_rss_mib"] = rssMiB

	v["host.probe_round_us"] = med(func(p *pass) float64 { return p.calRun.Seconds() * 1e6 })
	v["sim.wall_ns_per_event"] = 0
	if ev := passes[0].events; ev > 0 {
		v["sim.wall_ns_per_event"] = run * 1e9 / float64(ev)
	}
	v["runtime.gc_cpu_frac"] = med(func(p *pass) float64 { return p.gcCPU })
	v["runtime.gc_cycles_per_mop"] = med(func(p *pass) float64 { return float64(p.gcCount) }) / ops * 1e6
	v["span.open_s"] = med(func(p *pass) float64 { return p.open.Seconds() })
	v["span.load_s"] = med(func(p *pass) float64 { return p.load.Seconds() })
	v["span.warmup_s"] = med(func(p *pass) float64 { return p.warmup.Seconds() })
	v["span.run_s"] = med(func(p *pass) float64 { return p.run.Seconds() })
	v["span.verify_s"] = passes[0].verify.Seconds()

	if traced != nil {
		untraced := med(func(p *pass) float64 { return (p.run - p.runProbe).Seconds() })
		v["trace.overhead_frac"] = traced.run.Seconds()/untraced - 1
		tops := float64(max(traced.ops, 1))
		var cpu, alloc int64
		for _, l := range layers {
			v["cpu."+l+"_ns_per_op"] = float64(traced.cpu[l]) / tops
			v["alloc."+l+"_bytes_per_op"] = float64(traced.alloc[l]) / tops
			cpu += traced.cpu[l]
			alloc += traced.alloc[l]
		}
		v["cpu.total_ns_per_op"] = float64(cpu) / tops
		v["alloc.total_bytes_per_op"] = float64(alloc) / tops
	}
	return v
}

// diffVirtual names the first deterministic metric on which two passes
// disagree, or returns "" when they agree on all of them.
func diffVirtual(a, b map[string]float64) string {
	keys := slices.Sorted(maps.Keys(a))
	for _, k := range keys {
		bv, ok := b[k]
		if !ok || math.Float64bits(a[k]) != math.Float64bits(bv) {
			return fmt.Sprintf("%s: %v vs %v", k, a[k], bv)
		}
	}
	if len(b) != len(a) {
		return fmt.Sprintf("%d vs %d metrics", len(a), len(b))
	}
	return ""
}

// formatValue prints v with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// orderedNames returns the names in m in table order: end-to-end metrics
// first, then per-layer ones.
func orderedNames(m map[string]metric) []string {
	var names []string
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if _, ok := m[d.Name]; ok {
			names = append(names, d.Name)
		}
	}
	return names
}
