package core

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Ops are the query operations of a host engine, called from simulation
// processes.
type Ops interface {
	Get(p *sim.Proc, key int64)
	Update(p *sim.Proc, key int64, size int)
	Scan(p *sim.Proc, key int64, n int)
	Delete(p *sim.Proc, key int64)
}

// Host is the contract every host engine implements — the journal engine
// of the paper (this package) and the LSM engine (internal/lsm) — and the
// only way the closed-loop driver (Base.Run), the sharded open-loop front
// end, the crash-injection instrument and the verification oracles speak
// to one, so the engines are interchangeable and directly comparable on
// identical inputs. Base implements all of it but Get, Update, Scan, Load,
// Recovery and CopyFrom.
type Host interface {
	Ops

	Sim() *sim.Engine
	Device() *ssd.Device
	JournalStats() JournalStats

	// TriggerCheckpoint starts a checkpoint cut (journal) or flush epoch
	// (LSM) unless one is already running; the future completes when the
	// epoch does.
	TriggerCheckpoint() *sim.Future
	CheckpointRunning() bool
	// CheckpointEpoch advances at every checkpoint start and finish, so a
	// query that saw it move overlapped a checkpoint.
	CheckpointEpoch() uint64

	// Sync blocks until every write issued so far is durable.
	Sync(p *sim.Proc)

	// Load bulk-populates every record (the YCSB load phase).
	Load()
	// Run executes a measured workload phase.
	Run(spec RunSpec) (*Metrics, error)
	// Err is the error that ended the store's runs (see Base.Fail), or
	// nil; drivers stepping the kernel themselves check it.
	Err() error
	// Metrics exposes the last run's live collector.
	Metrics() *Metrics

	// SetCommitHook observes every (key, version) the instant it becomes
	// durable — the crash-consistency oracle's model feed.
	SetCommitHook(fn func(key, version int64))

	// Recovery reports, without advancing simulated time, what a crash
	// at this instant recovers next to the durable and in-memory version
	// truth, plus the device reads of the recovery scan.
	Recovery() *RecoveryReport

	// CopyFrom makes the engine's mutable state a deep copy of src's, a
	// quiescent engine of the same kind and shape; it rejects any other
	// engine, and only reads src (snapshot-and-fork).
	CopyFrom(src Host) error
}

// Apply executes one workload operation against h. A read-modify-write is
// a Get followed by an Update; an insert is an Update of a fresh key.
func Apply(h Ops, p *sim.Proc, op workload.Op) {
	switch op.Kind {
	case workload.OpRead:
		h.Get(p, op.Key)
	case workload.OpUpdate, workload.OpInsert:
		h.Update(p, op.Key, op.Size)
	case workload.OpReadModifyWrite:
		h.Get(p, op.Key)
		h.Update(p, op.Key, op.Size)
	case workload.OpScan:
		h.Scan(p, op.Key, op.ScanLen)
	case workload.OpDelete:
		h.Delete(p, op.Key)
	}
}

// RunSpec describes one measured workload phase.
type RunSpec struct {
	Threads      int
	TotalQueries int64
	Mix          workload.Mix
	// Zipfian selects the key distribution (θ = 0.99) vs uniform.
	Zipfian bool

	// SampleInterval enables timeline sampling at the given period
	// (windowed throughput, checkpoint activity, die backlog, free
	// blocks). Zero disables sampling.
	SampleInterval sim.VTime

	// Trace, when non-nil, replays a recorded operation stream instead of
	// generating operations: every run sees byte-identical inputs, the
	// strictest way to compare configurations. TotalQueries caps at the
	// trace length; Mix and Zipfian are ignored.
	Trace *workload.Trace
}

// Validate reports a descriptive error for specs unusable on a store of
// keys records: a replayed trace must be non-empty and stay inside them.
func (rs RunSpec) Validate(keys int64) error {
	if rs.Threads < 1 {
		return fmt.Errorf("core: Threads %d must be >= 1", rs.Threads)
	}
	if rs.TotalQueries < 1 {
		return fmt.Errorf("core: TotalQueries %d must be >= 1", rs.TotalQueries)
	}
	if rs.Trace == nil {
		return rs.Mix.Validate()
	}
	// The mix is ignored under replay.
	if len(rs.Trace.Ops) == 0 {
		return fmt.Errorf("core: empty trace")
	}
	for i, op := range rs.Trace.Ops {
		if op.Key < 0 || op.Key >= keys {
			return fmt.Errorf("core: trace op %d has key %d outside the %d records", i, op.Key, keys)
		}
	}
	return nil
}

// Run executes a closed-loop workload to completion and returns its
// metrics: spec.Threads client processes, an optional timeline sampler and
// the periodic checkpoint ticker, then a drain of every straggling
// process. A fresh collector replaces the live one before the run, so
// epoch processes record into it; the engine may be Run multiple times and
// the metrics cover only the last run. Both engines run workloads through
// this one driver, so they measure identically.
func (b *Base) Run(spec RunSpec) (*Metrics, error) {
	h, eng, dev, cfg := b.host, b.eng, b.dev, b.cfg
	if b.err != nil {
		return nil, b.err
	}
	if err := spec.Validate(cfg.Keys); err != nil {
		return nil, err
	}
	m := NewMetrics()
	b.metrics = m
	m.BeginWindow(dev, b.JournalStats(), eng.Now())

	var dist workload.Distribution = workload.Uniform{Keys: cfg.Keys}
	if spec.Zipfian {
		dist = workload.NewZipfian(cfg.Keys, workload.DefaultTheta)
	}

	// Under trace replay all clients pull from one shared replayer — the
	// single-worker simulation makes this race-free and deterministic.
	var replay *workload.Replayer
	if spec.Trace != nil {
		replay = workload.NewReplayer(spec.Trace)
		if n := int64(len(spec.Trace.Ops)); spec.TotalQueries > n {
			spec.TotalQueries = n
		}
	}

	remaining := spec.TotalQueries
	clientsLeft := spec.Threads
	runDone := false
	var endTime sim.VTime

	rng := sim.NewRNG(cfg.Seed)
	for t := 0; t < spec.Threads; t++ {
		mix := spec.Mix
		if replay != nil {
			mix = workload.WorkloadA // unused under replay, must validate
		}
		name := fmt.Sprintf("client-%d", t)
		gen, err := workload.NewGenerator(dist, cfg.Sizer, mix, rng.Split(name))
		if err != nil {
			return nil, err
		}
		eng.Go(name, func(p *sim.Proc) {
			for remaining > 0 {
				remaining--
				var op workload.Op
				if replay != nil {
					op = replay.Next()
				} else {
					op = gen.Next()
				}
				start := p.Now()
				epoch0 := b.epoch
				Apply(h, p, op)
				during := b.running || b.epoch != epoch0
				m.NoteQuery(op, p.Now()-start, during)
			}
			clientsLeft--
			if clientsLeft == 0 {
				endTime = p.Now()
				runDone = true
			}
		})
	}

	// timeline sampler
	if spec.SampleInterval > 0 {
		m.Timeline = stats.NewTimeline("kqps", "ckpt_active", "die_backlog_us", "free_blocks")
		lastQueries := uint64(0)
		start := eng.Now()
		var sample func()
		sample = func() {
			if runDone {
				return
			}
			now := eng.Now()
			window := spec.SampleInterval.Seconds()
			qps := float64(m.Queries-lastQueries) / window
			lastQueries = m.Queries
			active := 0.0
			if b.running {
				active = 1
			}
			backlog := dev.FTL().Array().MaxBacklog(now).Micros()
			m.Timeline.Sample(uint64(now-start), qps/1e3, active, backlog,
				float64(dev.FTL().FreeBlocks()))
			eng.Schedule(spec.SampleInterval, sample)
		}
		eng.Schedule(spec.SampleInterval, sample)
	}

	// periodic checkpoint scheduler (event-based: no leaked process)
	var tick func()
	tick = func() {
		if runDone {
			return
		}
		if !b.running {
			b.TriggerCheckpoint()
		}
		eng.Schedule(cfg.CheckpointInterval, tick)
	}
	eng.Schedule(cfg.CheckpointInterval, tick)

	for !runDone && b.err == nil {
		eng.RunUntil(eng.Now() + 50*sim.Millisecond)
	}
	// Drain the in-flight checkpoint and any straggling processes. A
	// checkpoint (or LSM flush or compaction) is in progress only while
	// its own process is live, so the process count covers all of them.
	for guard := 0; eng.LiveProcs() > 0 && b.err == nil && guard < 1_000_000; guard++ {
		eng.RunUntil(eng.Now() + 10*sim.Millisecond)
	}
	if b.err != nil {
		return nil, b.err
	}
	m.EndWindow(dev, b.JournalStats(), endTime)
	return m, nil
}
