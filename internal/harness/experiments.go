package harness

import (
	"fmt"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/runner"
)

// Experiments declare every run point as a runner.Job up front, execute the
// batch on the worker pool (Opts.Parallelism), and assemble rows from the
// completed results. Jobs are pure (config, seed) functions and results
// come back in submission order, so tables are byte-identical at any
// parallelism.

// Table1 prints the simulated machine configuration (the reproduction of
// the paper's Table I).
func Table1(o Opts) (*Table, error) {
	o = o.withDefaults()
	cfg := baseConfig(o, checkin.StrategyCheckIn)
	t := &Table{ID: "table1", Title: "Simulated machine configuration",
		Columns: []string{"parameter", "value"}}
	raw := int64(cfg.Channels*cfg.DiesPerChannel*cfg.PlanesPerDie*cfg.BlocksPerPlane*cfg.PagesPerBlock) * int64(cfg.PageSizeBytes)
	rows := [][2]string{
		{"record size", cfg.Records.Name()},
		{"keys", d(uint64(cfg.Keys))},
		{"checkpoint interval", cfg.CheckpointInterval.String()},
		{"journal half", fmt.Sprintf("%d MB", cfg.JournalHalfMB)},
		{"flash topology", fmt.Sprintf("%d ch x %d die x %d plane x %d blk x %d pg",
			cfg.Channels, cfg.DiesPerChannel, cfg.PlanesPerDie, cfg.BlocksPerPlane, cfg.PagesPerBlock)},
		{"page size", fmt.Sprintf("%d B", cfg.PageSizeBytes)},
		{"raw capacity", fmt.Sprintf("%d MB", raw>>20)},
		{"flash timing (tR/tPROG/tBERS)", fmt.Sprintf("%v / %v / %v", cfg.ReadLatency, cfg.ProgramLatency, cfg.EraseLatency)},
		{"channel rate", fmt.Sprintf("%d MB/s", cfg.ChannelMBps)},
		{"PCIe rate", fmt.Sprintf("%d MB/s", cfg.PCIeMBps)},
		{"queue depth", d(uint64(cfg.QueueDepth))},
		{"device data cache", fmt.Sprintf("%d MB", cfg.DataCacheMB)},
		{"map cache", fmt.Sprintf("%d MB", cfg.MapCacheMB)},
		{"mapping unit", "strategy default (4096 B conventional, 512 B sub-page)"},
		{"over-provisioning", f2(cfg.OverProvision)},
		{"max P/E cycles", d(uint64(cfg.MaxPECycles))},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return t, nil
}

// distName names a distribution selector.
func distName(zipf bool) string {
	if zipf {
		return "zipfian"
	}
	return "uniform"
}

// Fig3a measures the I/O- and flash-operation amplification checkpointing
// adds on the baseline system, for uniform and Zipfian access (paper:
// ~2.98x/~1.91x host I/O, ~7.9x/~4.7x flash operations).
func Fig3a(o Opts) (*Table, error) {
	o = o.withDefaults()
	dists := []bool{false, true}
	jobs := make([]runner.Job, 0, len(dists))
	for _, zipf := range dists {
		jobs = append(jobs, runner.Job{
			Name:   "fig3a/" + distName(zipf),
			Config: baseConfig(o, checkin.StrategyBaseline),
			Spec: checkin.RunSpec{
				Threads:      o.maxThreads(),
				TotalQueries: o.queries(80_000),
				Mix:          checkin.WorkloadWO,
				Zipfian:      zipf,
			},
		})
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig3a", Title: "Amplification due to checkpointing (baseline)",
		Columns: []string{"distribution", "host I/O amp", "flash amp", "ckpts"}}
	for i, zipf := range dists {
		m := rs[i].Metrics
		t.AddRow(distName(zipf), ratio(m.IOAmplification()), ratio(m.FlashAmplification()),
			d(uint64(m.Checkpoints())))
	}
	t.Notes = append(t.Notes,
		"paper reports ~2.98x/1.91x host I/O and ~7.9x/4.7x flash ops (uniform/zipfian)")
	return t, nil
}

// Fig3b measures baseline checkpointing time growth with thread count,
// normalized to the smallest thread count, for both distributions.
func Fig3b(o Opts) (*Table, error) {
	o = o.withDefaults()
	dists := []bool{false, true}
	jobs := make([]runner.Job, 0, len(dists)*len(o.Threads))
	for _, zipf := range dists {
		for _, th := range o.Threads {
			mult := int64(th / o.Threads[0])
			if mult > 8 {
				mult = 8
			}
			jobs = append(jobs, runner.Job{
				Name:   fmt.Sprintf("fig3b/%s/%dT", distName(zipf), th),
				Config: baseConfig(o, checkin.StrategyBaseline),
				Spec: checkin.RunSpec{
					Threads:      th,
					TotalQueries: o.queries(8_000) * mult,
					Mix:          checkin.WorkloadWO,
					Zipfian:      zipf,
				},
			})
		}
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig3b", Title: "Normalized checkpointing time vs threads (baseline)",
		Columns: []string{"threads", "uniform", "zipfian", "uniform ms", "zipfian ms"}}
	type point struct{ uni, zipf float64 }
	pts := make([]point, len(o.Threads))
	for zi := range dists {
		for i := range o.Threads {
			m := rs[zi*len(o.Threads)+i].Metrics
			v := float64(m.MeanCheckpointTime()) / 1e6 // ms
			if zi == 0 {
				pts[i].uni = v
			} else {
				pts[i].zipf = v
			}
		}
	}
	base := pts[0]
	for i, th := range o.Threads {
		nu, nz := 0.0, 0.0
		if base.uni > 0 {
			nu = pts[i].uni / base.uni
		}
		if base.zipf > 0 {
			nz = pts[i].zipf / base.zipf
		}
		t.AddRow(d(uint64(th)), f2(nu), f2(nz), f1(pts[i].uni), f1(pts[i].zipf))
	}
	t.Notes = append(t.Notes,
		"paper: checkpointing time grows with threads; the uniform slope exceeds zipfian at high thread counts (latest-version ratio ~5x higher)")
	return t, nil
}

// Fig3c measures how much slower queries run while a baseline checkpoint is
// in flight (paper: reads ~4x, writes ~21x the average latency).
func Fig3c(o Opts) (*Table, error) {
	o = o.withDefaults()
	rs, err := runJobs(o, []runner.Job{{
		Name:   "fig3c/baseline",
		Config: baseConfig(o, checkin.StrategyBaseline),
		Spec: checkin.RunSpec{
			Threads:      o.maxThreads(),
			TotalQueries: o.queries(80_000),
			Mix:          checkin.WorkloadA,
			Zipfian:      true,
		},
	}})
	if err != nil {
		return nil, err
	}
	m := rs[0].Metrics
	t := &Table{ID: "fig3c", Title: "Latency during checkpointing vs average (baseline)",
		Columns: []string{"query", "avg (µs)", "during ckpt (µs)", "slowdown"}}
	rd, rdC := m.ReadLat.Mean()/1e3, m.ReadLatCkpt.Mean()/1e3
	wr, wrC := m.WriteLat.Mean()/1e3, m.WriteLatCkpt.Mean()/1e3
	slow := func(a, b float64) string {
		if a == 0 {
			return "-"
		}
		return ratio(b / a)
	}
	t.AddRow("read", f1(rd), f1(rdC), slow(rd, rdC))
	t.AddRow("write", f1(wr), f1(wrC), slow(wr, wrC))
	t.Notes = append(t.Notes, "paper: reads ~4x and writes ~21x slower during checkpointing")
	return t, nil
}

// fig8Strategies are the configurations Figure 8 compares.
var fig8Strategies = []checkin.Strategy{
	checkin.StrategyBaseline, checkin.StrategyISCC, checkin.StrategyCheckIn,
}

// Fig8a measures redundant (duplicate) writes per checkpoint-interval
// setting (paper: Check-In reduces them ~94.3% vs baseline, ~45.6% vs
// ISC-C).
func Fig8a(o Opts) (*Table, error) {
	o = o.withDefaults()
	intervals := []time.Duration{150 * time.Millisecond, 300 * time.Millisecond,
		600 * time.Millisecond, 1200 * time.Millisecond}
	jobs := make([]runner.Job, 0, len(intervals)*len(fig8Strategies))
	for _, iv := range intervals {
		for _, s := range fig8Strategies {
			cfg := baseConfig(o, s)
			cfg.CheckpointInterval = iv
			jobs = append(jobs, runner.Job{
				Name:   fmt.Sprintf("fig8a/%v/%v", iv, s),
				Config: cfg,
				Spec: checkin.RunSpec{
					Threads:      o.maxThreads(),
					TotalQueries: o.queries(80_000),
					Mix:          checkin.WorkloadWO,
					Zipfian:      true,
				},
			})
		}
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig8a", Title: "Redundant writes vs checkpoint interval",
		Columns: []string{"interval", "Baseline", "ISC-C", "Check-In", "CI/Base", "CI/ISC-C"}}
	var sumBase, sumISCC, sumCI float64
	for ii, iv := range intervals {
		row := make(map[checkin.Strategy]uint64)
		for si, s := range fig8Strategies {
			row[s] = rs[ii*len(fig8Strategies)+si].Metrics.RedundantWrites()
		}
		b, c, ci := row[checkin.StrategyBaseline], row[checkin.StrategyISCC], row[checkin.StrategyCheckIn]
		rb, rc := "-", "-"
		if b > 0 && c > 0 {
			// only aggregate intervals where every configuration actually
			// checkpointed (a too-long interval may fit zero checkpoints
			// in a scaled-down run)
			sumBase += float64(b)
			sumISCC += float64(c)
			sumCI += float64(ci)
			rb = f2(float64(ci) / float64(b))
			rc = f2(float64(ci) / float64(c))
		}
		t.AddRow(iv.String(), d(b), d(c), d(ci), rb, rc)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured mean reduction: %.1f%% vs baseline, %.1f%% vs ISC-C (paper: 94.3%% / 45.6%%)",
			100*(1-sumCI/nonzero(sumBase)), 100*(1-sumCI/nonzero(sumISCC))))
	return t, nil
}

// smallDevice shrinks the flash device so sustained write streams wrap the
// free-block pool several times within a run — the regime where GC and
// lifetime differences show (the paper ran hours of traffic against real
// device capacities; we scale both down together).
func smallDevice(cfg checkin.Config) checkin.Config {
	cfg.BlocksPerPlane = 16 // 64 MB raw
	cfg.Keys = 10_000
	cfg.JournalHalfMB = 4
	return cfg
}

// Fig8b measures GC invocations (collections that migrate live data) as the
// write-query count grows (paper: Check-In cuts GC ~74.1% vs baseline,
// ~44.8% vs ISC-C).
func Fig8b(o Opts) (*Table, error) {
	o = o.withDefaults()
	counts := []int64{o.queries(30_000), o.queries(60_000), o.queries(120_000)}
	jobs := make([]runner.Job, 0, len(counts)*len(fig8Strategies))
	for _, q := range counts {
		for _, s := range fig8Strategies {
			jobs = append(jobs, runner.Job{
				Name:   fmt.Sprintf("fig8b/%d/%v", q, s),
				Config: smallDevice(baseConfig(o, s)),
				Spec: checkin.RunSpec{
					Threads:      o.maxThreads(),
					TotalQueries: q,
					Mix:          checkin.WorkloadWO,
					Zipfian:      true,
				},
			})
		}
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig8b", Title: "GC invocations vs write-query count",
		Columns: []string{"write queries", "Baseline", "ISC-C", "Check-In"}}
	var lastBase, lastISCC, lastCI uint64
	for qi, q := range counts {
		row := make(map[checkin.Strategy]uint64)
		for si, s := range fig8Strategies {
			row[s] = rs[qi*len(fig8Strategies)+si].Metrics.Reclaims()
		}
		lastBase, lastISCC, lastCI = row[checkin.StrategyBaseline], row[checkin.StrategyISCC], row[checkin.StrategyCheckIn]
		t.AddRow(d(uint64(q)), d(lastBase), d(lastISCC), d(lastCI))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("at max count: Check-In GC = %.1f%% of baseline, %.1f%% of ISC-C (paper reductions: 74.1%% / 44.8%%)",
			100*float64(lastCI)/nonzero(float64(lastBase)), 100*float64(lastCI)/nonzero(float64(lastISCC))))
	return t, nil
}

// Lifetime evaluates Equation (1) (Metrics.Lifetime) on equal work per
// strategy (paper: Check-In extends lifetime ~3.86x over baseline, ~1.81x
// over ISC-C).
func Lifetime(o Opts) (*Table, error) {
	o = o.withDefaults()
	jobs := make([]runner.Job, 0, len(fig8Strategies))
	for _, s := range fig8Strategies {
		jobs = append(jobs, runner.Job{
			Name:   fmt.Sprintf("lifetime/%v", s),
			Config: smallDevice(baseConfig(o, s)),
			Spec: checkin.RunSpec{
				Threads:      o.maxThreads(),
				TotalQueries: o.queries(120_000),
				Mix:          checkin.WorkloadWO,
				Zipfian:      true,
			},
		})
	}
	rs, err := runJobsKeepDB(o, jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "lifetime", Title: "Flash lifetime projection (Equation 1)",
		Columns: []string{"strategy", "programs", "energy (mJ)", "lifetime (PEC*Top/BEC)", "vs baseline"}}
	var baseLife float64
	for i, s := range fig8Strategies {
		db, m := rs[i].DB, rs[i].Metrics
		cfg := db.Config()
		life := m.Lifetime(cfg.MaxPECycles, cfg.PagesPerBlock)
		if s == checkin.StrategyBaseline {
			baseLife = life
		}
		t.AddRow(s.String(), d(m.FlashPrograms()), f1(m.FlashEnergyMJ(db.Device().FTL().Array().Timing())), f0(life), ratio(life/nonzero(baseLife)))
	}
	t.Notes = append(t.Notes, "paper: Check-In ~3.86x baseline, ~1.81x ISC-C")
	return t, nil
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// Fig9 measures tail latency for all five configurations under YCSB-A
// (paper: Check-In cuts p99.9 by ~92% vs baseline).
func Fig9(o Opts) (*Table, error) {
	o = o.withDefaults()
	dists := []bool{false, true}
	jobs := make([]runner.Job, 0, len(dists)*len(checkin.Strategies))
	for _, zipf := range dists {
		for _, s := range checkin.Strategies {
			jobs = append(jobs, runner.Job{
				Name:   fmt.Sprintf("fig9/%s/%v", distName(zipf), s),
				Config: baseConfig(o, s),
				Spec: checkin.RunSpec{
					Threads:      o.maxThreads(),
					TotalQueries: o.queries(80_000),
					Mix:          checkin.WorkloadA,
					Zipfian:      zipf,
				},
			})
		}
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig9", Title: "Tail latency, workload A",
		Columns: []string{"strategy", "dist", "p99 (µs)", "p99.9 (µs)", "p99.99 (µs)"}}
	type key struct {
		s    checkin.Strategy
		zipf bool
	}
	p999 := map[key]float64{}
	for zi, zipf := range dists {
		for si, s := range checkin.Strategies {
			m := rs[zi*len(checkin.Strategies)+si].Metrics
			p999[key{s, zipf}] = float64(m.AllLat.Percentile(99.9))
			t.AddRow(s.String(), distName(zipf),
				f1(float64(m.AllLat.Percentile(99))/1e3),
				f1(float64(m.AllLat.Percentile(99.9))/1e3),
				f1(float64(m.AllLat.Percentile(99.99))/1e3))
		}
	}
	for _, zipf := range dists {
		red := 100 * (1 - p999[key{checkin.StrategyCheckIn, zipf}]/
			nonzero(p999[key{checkin.StrategyBaseline, zipf}]))
		t.Notes = append(t.Notes,
			fmt.Sprintf("%s: Check-In reduces p99.9 by %.1f%% vs baseline (paper ~92%%)", distName(zipf), red))
	}
	return t, nil
}

// Fig10 measures pure checkpointing time (query admission locked) for all
// five configurations across thread counts.
func Fig10(o Opts) (*Table, error) {
	o = o.withDefaults()
	jobs := make([]runner.Job, 0, len(checkin.Strategies)*len(o.Threads))
	for _, s := range checkin.Strategies {
		for _, th := range o.Threads {
			cfg := baseConfig(o, s)
			cfg.LockDuringCheckpoint = true
			mult := int64(th / o.Threads[0])
			if mult > 8 {
				mult = 8
			}
			jobs = append(jobs, runner.Job{
				Name:   fmt.Sprintf("fig10/%v/%dT", s, th),
				Config: cfg,
				Spec: checkin.RunSpec{
					Threads:      th,
					TotalQueries: o.queries(8_000) * mult,
					Mix:          checkin.WorkloadWO,
					Zipfian:      true,
				},
			})
		}
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	cols := []string{"strategy"}
	for _, th := range o.Threads {
		cols = append(cols, fmt.Sprintf("%dT (ms)", th))
	}
	t := &Table{ID: "fig10", Title: "Checkpointing time vs threads (locked)", Columns: cols}
	for si, s := range checkin.Strategies {
		row := []string{s.String()}
		for ti := range o.Threads {
			m := rs[si*len(o.Threads)+ti].Metrics
			row = append(row, f1(float64(m.MeanCheckpointTime())/1e6))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: in-storage checkpointing keeps checkpoint time nearly flat as threads grow; baseline grows steeply")
	return t, nil
}

// fig11 runs are shared between Fig11a and Fig11b.
type fig11Key struct {
	s   checkin.Strategy
	mix string
	th  int
}

type fig11Val struct {
	qps    float64
	meanUS float64
}

var fig11Mixes = []struct {
	name string
	mix  checkin.Mix
}{{"A", checkin.WorkloadA}, {"F", checkin.WorkloadF}, {"WO", checkin.WorkloadWO}}

// fig11Runs builds the shared sweep. Deduplication between Fig11a and
// Fig11b happens in the runner's memo layer — the second invocation's jobs
// all hit the (config, spec) cache and no simulation re-runs.
func fig11Runs(o Opts) (map[fig11Key]fig11Val, error) {
	var jobs []runner.Job
	var keys []fig11Key
	for _, s := range checkin.Strategies {
		for _, mx := range fig11Mixes {
			for _, th := range o.Threads {
				cfg := baseConfig(o, s)
				// The paper's 60 s interval keeps checkpointing duty low
				// (checkpoint time ≪ interval); mirror that proportion.
				cfg.CheckpointInterval = time.Second
				// scale the query count with the thread count so runs
				// span a comparable simulated time — and therefore meet
				// a comparable number of checkpoints — at every point
				mult := int64(th / o.Threads[0])
				if mult > 16 {
					mult = 16
				}
				if mult < 1 {
					mult = 1
				}
				jobs = append(jobs, runner.Job{
					Name:   fmt.Sprintf("fig11/%v/%s/%dT", s, mx.name, th),
					Config: cfg,
					Spec: checkin.RunSpec{
						Threads:      th,
						TotalQueries: o.queries(15_000) * mult,
						Mix:          mx.mix,
						Zipfian:      true,
					},
				})
				keys = append(keys, fig11Key{s, mx.name, th})
			}
		}
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	out := map[fig11Key]fig11Val{}
	for i, k := range keys {
		m := rs[i].Metrics
		out[k] = fig11Val{
			qps:    m.ThroughputQPS(),
			meanUS: float64(m.MeanLatency()) / 1e3,
		}
	}
	return out, nil
}

// Fig11a reports average throughput per strategy/workload/threads.
func Fig11a(o Opts) (*Table, error) {
	o = o.withDefaults()
	runs, err := fig11Runs(o)
	if err != nil {
		return nil, err
	}
	cols := []string{"workload", "strategy"}
	for _, th := range o.Threads {
		cols = append(cols, fmt.Sprintf("%dT (kqps)", th))
	}
	t := &Table{ID: "fig11a", Title: "Average query throughput", Columns: cols}
	for _, mix := range []string{"A", "F", "WO"} {
		for _, s := range checkin.Strategies {
			row := []string{mix, s.String()}
			for _, th := range o.Threads {
				row = append(row, f1(runs[fig11Key{s, mix, th}].qps/1e3))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes, "paper: Check-In improves average throughput ~8.1% over baseline at high thread counts")
	return t, nil
}

// Fig11b reports average latency per strategy/workload/threads.
func Fig11b(o Opts) (*Table, error) {
	o = o.withDefaults()
	runs, err := fig11Runs(o)
	if err != nil {
		return nil, err
	}
	cols := []string{"workload", "strategy"}
	for _, th := range o.Threads {
		cols = append(cols, fmt.Sprintf("%dT (µs)", th))
	}
	t := &Table{ID: "fig11b", Title: "Average query latency", Columns: cols}
	for _, mix := range []string{"A", "F", "WO"} {
		for _, s := range checkin.Strategies {
			row := []string{mix, s.String()}
			for _, th := range o.Threads {
				row = append(row, f1(runs[fig11Key{s, mix, th}].meanUS))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes, "paper: Check-In improves average latency ~10.2% at 128 threads")
	return t, nil
}

// fig12Strategies are the two configurations Figure 12 sweeps.
var fig12Strategies = []checkin.Strategy{checkin.StrategyBaseline, checkin.StrategyCheckIn}

// Fig12 sweeps the checkpoint interval for baseline and Check-In (paper:
// baseline improves with longer intervals; Check-In is flat).
func Fig12(o Opts) (*Table, error) {
	o = o.withDefaults()
	intervals := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond}
	jobs := make([]runner.Job, 0, len(intervals)*len(fig12Strategies))
	for _, iv := range intervals {
		for _, s := range fig12Strategies {
			cfg := baseConfig(o, s)
			cfg.CheckpointInterval = iv
			jobs = append(jobs, runner.Job{
				Name:   fmt.Sprintf("fig12/%v/%v", iv, s),
				Config: cfg,
				Spec: checkin.RunSpec{
					Threads:      o.maxThreads(),
					TotalQueries: o.queries(150_000),
					Mix:          checkin.WorkloadA,
					Zipfian:      true,
				},
			})
		}
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig12", Title: "Checkpoint-interval sensitivity (workload A, zipfian)",
		Columns: []string{"interval", "Base kqps", "CI kqps", "Base µs", "CI µs"}}
	for ii, iv := range intervals {
		var vals [2]fig11Val
		for si := range fig12Strategies {
			m := rs[ii*len(fig12Strategies)+si].Metrics
			vals[si] = fig11Val{qps: m.ThroughputQPS(), meanUS: float64(m.MeanLatency()) / 1e3}
		}
		t.AddRow(iv.String(), f1(vals[0].qps/1e3), f1(vals[1].qps/1e3),
			f1(vals[0].meanUS), f1(vals[1].meanUS))
	}
	t.Notes = append(t.Notes,
		"paper: baseline throughput rises / latency falls with longer intervals; Check-In stays steady throughout")
	return t, nil
}

// fig13Strategies are the two remapping designs Figure 13 compares.
var fig13Strategies = []checkin.Strategy{checkin.StrategyISCC, checkin.StrategyCheckIn}

// Fig13a sweeps the FTL mapping unit for the remapping designs under mixed
// record sizes (paper: throughput grows with unit size; Check-In gains
// more because of higher data reusability).
func Fig13a(o Opts) (*Table, error) {
	o = o.withDefaults()
	units := []int{512, 1024, 2048, 4096}
	jobs := make([]runner.Job, 0, len(units)*len(fig13Strategies))
	for _, u := range units {
		for _, s := range fig13Strategies {
			cfg := baseConfig(o, s)
			cfg.MappingUnit = u
			cfg.Keys = 8_000
			cfg.Records = checkin.PatternP1
			// the paper's trade-off needs real map-metadata pressure:
			// at 512 B units the table exceeds the cache ~4x; at 4 KB
			// it fits entirely
			cfg.MapCacheMB = 2
			jobs = append(jobs, runner.Job{
				Name:   fmt.Sprintf("fig13a/%dB/%v", u, s),
				Config: cfg,
				Spec: checkin.RunSpec{
					Threads:      o.maxThreads(),
					TotalQueries: o.queries(25_000),
					Mix:          checkin.WorkloadA,
					Zipfian:      true,
				},
			})
		}
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig13a", Title: "Throughput vs mapping unit (mixed record sizes)",
		Columns: []string{"unit (B)", "ISC-C kqps", "Check-In kqps"}}
	for ui, u := range units {
		var vals [2]float64
		for si := range fig13Strategies {
			vals[si] = rs[ui*len(fig13Strategies)+si].Metrics.ThroughputQPS()
		}
		t.AddRow(d(uint64(u)), f1(vals[0]/1e3), f1(vals[1]/1e3))
	}
	t.Notes = append(t.Notes,
		"paper: throughput generally rises with mapping unit (less map metadata); Check-In benefits most at 4096 B")
	return t, nil
}

// Fig13b compares the space overhead of Check-In's sector-aligned
// journaling against ISC-C's raw format for the four record-size mixes, at
// the 4 KB mapping unit where the paper quotes "almost 3%" extra space.
// The device-level column amortizes the journal padding over all device
// writes, which is what capacity provisioning feels.
func Fig13b(o Opts) (*Table, error) {
	o = o.withDefaults()
	patterns := []checkin.Sizer{checkin.PatternP1, checkin.PatternP2, checkin.PatternP3, checkin.PatternP4}
	jobs := make([]runner.Job, 0, len(patterns)*len(fig13Strategies))
	for _, pat := range patterns {
		for _, s := range fig13Strategies {
			cfg := baseConfig(o, s)
			cfg.Keys = 8_000
			cfg.Records = pat
			cfg.MappingUnit = 4096
			// compare pure alignment overhead (no compression shrink)
			cfg.CompressRatio = 1.0
			jobs = append(jobs, runner.Job{
				Name:   fmt.Sprintf("fig13b/%s/%v", pat.Name(), s),
				Config: cfg,
				Spec: checkin.RunSpec{
					Threads:      o.maxThreads(),
					TotalQueries: o.queries(12_000),
					Mix:          checkin.WorkloadWO,
					Zipfian:      true,
				},
			})
		}
	}
	rs, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig13b", Title: "Space overhead: Check-In vs ISC-C (4 KB mapping unit)",
		Columns: []string{"pattern", "ISC-C journal ovh", "Check-In journal ovh", "device-level delta %"}}
	for pi, pat := range patterns {
		var journalOvh [2]float64
		var deviceOvh [2]float64
		for si := range fig13Strategies {
			m := rs[pi*len(fig13Strategies)+si].Metrics
			journalOvh[si] = m.JournalSpaceOverhead()
			extra := float64(m.JournalEnd.StoredBytes-m.JournalStart.StoredBytes) -
				float64(m.JournalEnd.PayloadBytes-m.JournalStart.PayloadBytes)
			deviceOvh[si] = extra / nonzero(float64(m.HostWriteBytes()))
		}
		t.AddRow(pat.Name(), f2(journalOvh[0]), f2(journalOvh[1]),
			f1(100*(deviceOvh[1]-deviceOvh[0])))
	}
	t.Notes = append(t.Notes,
		"paper: Check-In's alignment costs up to ~3% extra device space at the 4 KB unit, repaid by remap efficiency")
	return t, nil
}
