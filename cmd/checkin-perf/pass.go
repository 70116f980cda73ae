package main

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/lsm"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/shard"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/stats"
)

// pass is one set-up plus one measured window. Every pass of a run replays
// identical inputs from a freshly built stack, so its virtual metrics must
// match every other pass's exactly.
type pass struct {
	open, load, warmup, run, verify time.Duration
	// Host calibration of untraced passes (see calibrate.go): mean probe
	// round time during set-up and during the window, the wall time probe
	// rounds took inside each, and the simulator events the window's probe
	// added.
	calSetup, calRun     time.Duration
	setupProbe, runProbe time.Duration
	probeEvents          uint64

	ops     int64 // queries completed in the window
	events  uint64
	mallocs uint64
	gcCPU   float64 // share of the process's CPU spent in GC during the window
	gcCount uint64

	// virt holds the deterministic metrics: virtual-time results and
	// simulator counters per op.
	virt      map[string]float64
	info      []string // sample counts and sizes printed beside the metrics
	attempted int64
	failed    int64
	failures  []string

	// Traced passes only: raw profiles and their per-layer totals.
	cpuProf, heapProf []byte
	cpu, alloc        map[string]int64
}

type passOpts struct {
	traced bool // profile CPU and allocations in the window
	verify bool // run the correctness checks after the window
	log    *spanLog
	parent int
}

// setup returns the pass's set-up time: Open, Load and warm-up.
func (p *pass) setup() time.Duration { return p.open + p.load + p.warmup }

// counters is one reading of every cumulative counter the stack exposes.
type counters struct {
	now     sim.VTime
	events  uint64
	nand    nand.Stats
	dieBusy sim.VTime // summed over dies
	chBusy  sim.VTime // summed over channels
	dies    int
	chans   int
	ftl     ftl.Stats
	ssd     ssd.Stats
	journal core.JournalStats
	lsm     lsm.Stats
}

func readCounters(db *checkin.DB) counters {
	arr := db.Device().FTL().Array()
	geo := arr.Geometry()
	c := counters{
		now:     db.Sim().Now(),
		events:  db.Sim().Executed(),
		nand:    arr.Stats(),
		dies:    geo.TotalDies(),
		chans:   geo.Channels,
		ftl:     db.Device().FTL().Stats(),
		ssd:     db.Device().Stats(),
		journal: db.JournalStats(),
	}
	for d := range c.dies {
		c.dieBusy += arr.DieBusyTotal(d)
	}
	for ch := range c.chans {
		c.chBusy += arr.ChannelBusyTotal(ch)
	}
	if en, ok := db.Host().(*lsm.Engine); ok {
		c.lsm = en.Stats()
	}
	return c
}

// runtimeReading is the Go runtime's cumulative cost counters.
type runtimeReading struct {
	mallocs      uint64
	gcCPU, total float64
	gcCycles     uint64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeReading{
		mallocs:  s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		total:    s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
	}
}

func (p *pass) noteRuntime(a, b runtimeReading) {
	p.mallocs = b.mallocs - a.mallocs
	p.gcCount = b.gcCycles - a.gcCycles
	if cpu := b.total - a.total; cpu > 0 {
		p.gcCPU = (b.gcCPU - a.gcCPU) / cpu
	}
}

// profiler records a CPU profile and brackets the window with heap
// profiles, whose difference is the window's allocations.
type profiler struct {
	cpu        bytes.Buffer
	heapBefore []byte
}

func startProfiler() (*profiler, error) {
	pr := &profiler{}
	var err error
	if pr.heapBefore, err = heapProfile(); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&pr.cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return pr, nil
}

func (pr *profiler) stop(p *pass) error {
	pprof.StopCPUProfile()
	heapAfter, err := heapProfile()
	if err != nil {
		return err
	}
	p.cpuProf, p.heapProf = pr.cpu.Bytes(), heapAfter
	cpu, err := parseProfile(p.cpuProf)
	if err != nil {
		return err
	}
	if p.cpu, err = byLayer(cpu, nil, "cpu"); err != nil {
		return err
	}
	before, err := parseProfile(pr.heapBefore)
	if err != nil {
		return err
	}
	after, err := parseProfile(heapAfter)
	if err != nil {
		return err
	}
	p.alloc, err = byLayer(after, before, "alloc_space")
	return err
}

// heapProfile returns the cumulative allocation profile. The runtime
// publishes allocations to it at the end of a GC cycle, so one runs first.
func heapProfile() ([]byte, error) {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	return b.Bytes(), nil
}

// measure runs fn as the measured window: the runtime counters and, in a
// traced pass, the profiles cover exactly fn. An untraced pass passes the
// calibrator that probes host speed beside the window.
func (p *pass) measure(o passOpts, cal calibrator, fn func() error) error {
	var pr *profiler
	if o.traced {
		var err error
		if pr, err = startProfiler(); err != nil {
			return err
		}
	}
	r0 := readRuntime()
	id := o.log.begin("run", o.parent)
	err := fn()
	p.run = o.log.end(id)
	p.noteRuntime(r0, readRuntime())
	if cal != nil {
		p.calRun, p.runProbe, p.probeEvents = cal.lap()
	}
	if pr != nil {
		if perr := pr.stop(p); err == nil {
			err = perr
		}
	}
	return err
}

// closedPass builds the stack, warms it up and measures one window.
func closedPass(cfg checkin.Config, in *inputs, o passOpts) (*pass, error) {
	runtime.GC()
	p := &pass{}
	id := o.log.begin("open", o.parent)
	db, err := checkin.Open(cfg)
	p.open = o.log.end(id)
	if err != nil {
		return nil, err
	}
	id = o.log.begin("load", o.parent)
	db.Load()
	p.load = o.log.end(id)
	// Load runs the simulation dry, so probing starts after it.
	var cal calibrator
	if !o.traced {
		lp := startLoopProbe(db.Sim())
		defer lp.stop()
		cal = lp
	}
	id = o.log.begin("warmup", o.parent)
	for _, tr := range in.warmup {
		if _, err := db.Run(checkin.RunSpec{Threads: clients, TotalQueries: int64(len(tr.Ops)), Trace: tr}); err != nil {
			return nil, err
		}
	}
	p.warmup = o.log.end(id)
	if cal != nil {
		p.calSetup, p.setupProbe, _ = cal.lap()
	}

	c0 := readCounters(db)
	var m *checkin.Metrics
	err = p.measure(o, cal, func() error {
		var err error
		m, err = db.Run(checkin.RunSpec{Threads: clients, TotalQueries: int64(len(in.window.Ops)), Trace: in.window})
		return err
	})
	if err != nil {
		return nil, err
	}
	if cal != nil {
		cal.stop()
	}
	c1 := readCounters(db)
	c1.events -= p.probeEvents
	p.closedMetrics(m, c0, c1, int64(len(in.window.Ops)))
	if o.verify {
		id = o.log.begin("verify", o.parent)
		p.failures = verifyStack(db)
		p.verify = o.log.end(id)
	}
	return p, nil
}

// verifyStack runs the stack's correctness oracles after the window: host
// recovery must reproduce every durable version, the device's power-loss
// rebuild must match its live mapping, and the FTL's invariants must hold.
func verifyStack(db *checkin.DB) []string {
	var failures []string
	rep := db.SimulateRecovery()
	durable := db.DurableVersions()
	diverged := 0
	for k, v := range durable {
		if rep.Recovered[k] != v {
			diverged++
		}
	}
	if diverged > 0 {
		failures = append(failures, fmt.Sprintf("recovery: %d of %d keys differ from their durable version", diverged, len(durable)))
	}
	if spor := db.SimulateSPOR(); spor.Mismatches != 0 {
		failures = append(failures, fmt.Sprintf("spor: %d mismatches", spor.Mismatches))
	}
	if err := db.Device().FTL().CheckInvariants(); err != nil {
		failures = append(failures, fmt.Sprintf("ftl invariants: %v", err))
	}
	return failures
}

// closedMetrics fills the pass's deterministic metrics from the window's
// engine metrics m and the counter readings a (before) and b (after).
func (p *pass) closedMetrics(m *checkin.Metrics, a, b counters, requested int64) {
	p.ops = int64(m.Queries)
	p.events = b.events - a.events
	p.attempted = requested
	p.failed = int64(m.RejectedWrites) + requested - int64(m.Queries)
	ops := float64(max(m.Queries, 1))
	per := func(x uint64) float64 { return float64(x) / ops }
	ratio := func(x, y uint64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	us := func(h *stats.Histogram, pct float64) float64 { return float64(h.Percentile(pct)) / 1e3 }
	elapsed := float64(b.now - a.now)
	payload := m.WriteQueryPayload
	f0, f1 := a.ftl, b.ftl
	d0, d1 := a.ssd, b.ssd
	journal := core.JournalStats{
		PayloadBytes: b.journal.PayloadBytes - a.journal.PayloadBytes,
		StoredBytes:  b.journal.StoredBytes - a.journal.StoredBytes,
	}
	cmtLookups := f1.CMTHits + f1.CMTMisses - f0.CMTHits - f0.CMTMisses
	p.virt = map[string]float64{
		"kqps":        m.ThroughputQPS() / 1e3,
		"lat_mean_us": m.AllLat.Mean() / 1e3,

		"sim.events_per_op": per(p.events),

		"nand.reads_per_op":    per(b.nand.Reads - a.nand.Reads),
		"nand.programs_per_op": per(b.nand.Programs - a.nand.Programs),
		"nand.erases_per_kop":  1e3 * per(b.nand.Erases-a.nand.Erases),
		"nand.die_util":        float64(b.dieBusy-a.dieBusy) / (elapsed * float64(a.dies)),
		"nand.channel_util":    float64(b.chBusy-a.chBusy) / (elapsed * float64(a.chans)),
		"nand.flash_amp":       ratio(b.nand.BytesProgrammed+b.nand.BytesRead-a.nand.BytesProgrammed-a.nand.BytesRead, payload),

		"ftl.reclaims_per_kop":         1e3 * per(f1.GCInvocations+f1.DeadReclaims-f0.GCInvocations-f0.DeadReclaims),
		"ftl.gc_migrated_slots_per_op": per(f1.GCMigratedSlot - f0.GCMigratedSlot),
		"ftl.redundant_writes_per_op":  per(f1.RedundantWrites() - f0.RedundantWrites()),
		"ftl.remaps_per_op":            per(f1.Remaps - f0.Remaps),
		"ftl.remap_rmws_per_op":        per(f1.RemapRMWs - f0.RemapRMWs),
		"ftl.host_rmw_reads_per_op":    per(f1.HostRMWReads - f0.HostRMWReads),
		"ftl.cmt_hit_ratio":            ratio(f1.CMTHits-f0.CMTHits, cmtLookups),
		"ftl.cmt_evictions_per_op":     per(f1.CMTEvictions - f0.CMTEvictions),
		"ftl.trans_reads_per_kop":      1e3 * per(f1.TransReads-f0.TransReads),
		"ftl.trans_flushes_per_kop":    1e3 * per(f1.TransFlushes-f0.TransFlushes),

		"ssd.commands_per_op":      per(d1.Commands - d0.Commands),
		"ssd.cache_hit_ratio":      ratio(d1.CacheHits-d0.CacheHits, d1.CacheHits+d1.CacheMisses-d0.CacheHits-d0.CacheMisses),
		"ssd.queue_wait_mean_us":   ratio(uint64(d1.QueueWait.Sum-d0.QueueWait.Sum), d1.QueueWait.N-d0.QueueWait.N) / 1e3,
		"ssd.io_amp":               ratio(d1.HostReadBytes+d1.HostWriteBytes-d0.HostReadBytes-d0.HostWriteBytes, payload),
		"ssd.remap_entries_per_op": per(d1.RemapEntries - d0.RemapEntries),
		"ssd.cow_pairs_per_op":     per(d1.CoWPairs - d0.CoWPairs),

		"engine.lat_p50_us":                  us(&m.AllLat, 50),
		"engine.lat_p999_us":                 us(&m.AllLat, 99.9),
		"engine.ckpt_mean_ms":                float64(m.MeanCheckpointTime()) / 1e6,
		"engine.ckpt_max_ms":                 float64(m.MaxCheckpointTime()) / 1e6,
		"engine.read_p50_us":                 us(&m.ReadLat, 50),
		"engine.read_p999_us":                us(&m.ReadLat, 99.9),
		"engine.write_p50_us":                us(&m.WriteLat, 50),
		"engine.write_p999_us":               us(&m.WriteLat, 99.9),
		"engine.read_p999_in_ckpt_us":        us(&m.ReadLatCkpt, 99.9),
		"engine.write_p999_in_ckpt_us":       us(&m.WriteLatCkpt, 99.9),
		"engine.journal_space_overhead":      journal.SpaceOverhead(),
		"lsm.compactions_per_kop":            1e3 * per(b.lsm.Compactions-a.lsm.Compactions),
		"lsm.compaction_bytes_per_user_byte": ratio(b.lsm.CompactionRead+b.lsm.CompactionWrite-a.lsm.CompactionRead-a.lsm.CompactionWrite, payload),
		"lsm.flushes_per_kop":                1e3 * per(b.lsm.Flushes-a.lsm.Flushes),

		"shard.peak_queue_max": 0,
		"shard.done_imbalance": 0,
		"shard.slo_miss_pct":   0,
	}
	p.info = []string{
		fmt.Sprintf("latency samples: %d (%d reads, %d writes; %d reads and %d writes overlapped a checkpoint)",
			m.AllLat.Count(), m.ReadLat.Count(), m.WriteLat.Count(), m.ReadLatCkpt.Count(), m.WriteLatCkpt.Count()),
		fmt.Sprintf("checkpoints: %d; cmt lookups: %d; virtual window %.3f s", m.Checkpoints(), cmtLookups, elapsed/1e9),
	}
}

// shardPass opens the sharded system and measures one Run of it. The shard
// layer exposes no device counters, so those metrics read 0 here.
func shardPass(cfg shard.Config, o passOpts) (*pass, error) {
	runtime.GC()
	p := &pass{}
	var cal calibrator
	if !o.traced {
		sp := newSizerProbe()
		defer sp.stop()
		cfg.Arrival.Sizer = sp
		cal = sp
	}
	id := o.log.begin("open", o.parent)
	s, err := shard.Open(cfg)
	setup := o.log.end(id)
	if err != nil {
		return nil, err
	}
	var rep *shard.Report
	err = p.measure(o, cal, func() error {
		var err error
		rep, err = s.Run()
		return err
	})
	if err != nil {
		return nil, err
	}
	// Open loads one template stack and forks it per shard; the report
	// carries the template load's share.
	p.load = rep.LoadWall
	p.open = setup - rep.LoadWall
	// Open never calls the arrival size function, so the window that follows
	// it at once calibrates both.
	p.calSetup = p.calRun
	p.shardMetrics(rep, cfg.TotalOps)
	if o.verify {
		id = o.log.begin("verify", o.parent)
		if rep.Offered != uint64(cfg.TotalOps) {
			p.failures = append(p.failures, fmt.Sprintf("shard: offered %d of %d arrivals", rep.Offered, cfg.TotalOps))
		}
		if rep.Done != rep.Admitted {
			p.failures = append(p.failures, fmt.Sprintf("shard: done %d != admitted %d", rep.Done, rep.Admitted))
		}
		p.verify = o.log.end(id)
	}
	return p, nil
}

func (p *pass) shardMetrics(rep *shard.Report, requested int64) {
	p.ops = int64(rep.Done)
	p.attempted = requested
	p.failed = int64(rep.Shed+rep.Admitted) - int64(rep.Done)
	var latSum, misses float64
	var p50, p999 sim.VTime
	for _, t := range rep.Tenants {
		latSum += float64(t.Mean) * float64(t.Done)
		misses += t.SLOMissPct / 100 * float64(t.Done)
		p50, p999 = max(p50, t.P50), max(p999, t.P999)
	}
	var ckptSum float64
	var ckpts, peak int
	var doneMax uint64
	for _, s := range rep.ShardRows {
		ckptSum += float64(s.MeanCkpt) * float64(s.Checkpoints)
		ckpts += s.Checkpoints
		peak = max(peak, s.PeakQueue)
		doneMax = max(doneMax, s.Done)
	}
	done := float64(max(rep.Done, 1))
	p.virt = map[string]float64{}
	for _, d := range perLayer {
		if d.virtual {
			p.virt[d.Name] = 0 // device and engine counters are not exposed
		}
	}
	maps.Copy(p.virt, map[string]float64{
		"kqps":                 done / rep.Elapsed.Seconds() / 1e3,
		"lat_mean_us":          latSum / done / 1e3,
		"engine.lat_p50_us":    float64(p50) / 1e3,
		"engine.lat_p999_us":   float64(p999) / 1e3,
		"engine.ckpt_mean_ms":  ckptSum / math.Max(float64(ckpts), 1) / 1e6,
		"shard.peak_queue_max": float64(peak),
		"shard.done_imbalance": float64(doneMax) * float64(len(rep.ShardRows)) / done,
		"shard.slo_miss_pct":   100 * misses / done,
	})
	p.info = []string{fmt.Sprintf("latency samples: %d across %d tenants; checkpoints: %d; offered %d, shed %d",
		rep.Done, len(rep.Tenants), ckpts, rep.Offered, rep.Shed)}
}
