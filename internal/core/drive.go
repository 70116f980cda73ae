package core

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Host is the contract every host engine implements — the journal engine
// of the paper (this package) and the LSM engine (internal/lsm) — and the
// only way the closed-loop driver (Base.Run), the sharded open-loop front
// end, the crash-injection instrument and the verification oracles speak
// to one, so the engines are interchangeable and directly comparable on
// identical inputs. Base implements all of it but Get, Update, Scan, Load
// and Recovery. An engine is forked from a quiescent one of its kind by
// its package's fork constructor (ForkEngine, lsm.Fork), not through Host.
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
	Load() error
	// Run executes a measured workload phase.
	Run(spec RunSpec) (*Metrics, error)
	// Err is the error that ended the store's runs (see Base.Fail), or
	// nil; drivers stepping the kernel themselves check it.
	Err() error
	// Parked counts Run's closed-loop clients that have not finished:
	// outside an event each waits on a kernel event, its start or its
	// query's wake-up. A fork refuses a store with any.
	Parked() int
	// Metrics returns the live collector (see Base.Metrics): a measured
	// window opens on it, and epochs record into it.
	Metrics() *Metrics

	// SetCommitHook observes every (key, version) the instant it becomes
	// durable — the crash-consistency oracle's model feed.
	SetCommitHook(fn func(key, version int64))

	// Recovery reports, without advancing simulated time, what a crash
	// at this instant recovers next to the durable and in-memory version
	// truth, plus the device reads of the recovery scan.
	Recovery() *RecoveryReport
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
// keys records whose log can ever admit a write of n bytes only if fits(n).
// A replayed trace must be non-empty, and each op must be one Run can
// finish: a known kind, a size of at least 1 byte, a key inside the
// records, and, for a write, a payload the log fits (a larger one would
// trigger checkpoints forever). A scan length cannot be negative: the
// field is unsigned.
func (rs RunSpec) Validate(keys int64, fits func(payload int) bool) error {
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
		switch {
		case op.Kind > workload.OpDelete:
			return fmt.Errorf("core: trace op %d has unknown kind %v", i, op.Kind)
		case op.Size < 1:
			return fmt.Errorf("core: trace op %d has size %d, below 1 byte", i, op.Size)
		case op.Key < 0 || op.Key >= keys:
			return fmt.Errorf("core: trace op %d has key %d outside the %d records", i, op.Key, keys)
		case op.Kind != workload.OpRead && op.Kind != workload.OpScan && !fits(payload(op)):
			return fmt.Errorf("core: trace op %d writes %d bytes, more than the log can ever admit", i, payload(op))
		}
	}
	return nil
}

// Run executes a closed-loop workload to completion and returns its
// metrics: spec.Threads clients, an optional timeline sampler and the
// periodic checkpoint ticker. The last client ends the run at the phase's
// last event (Engine.StopWhenIdle): its own finish, or an epoch's later
// exit; queued timers stay for the next run. Each
// client is a kernel handler driving its Query through the host's op
// machine, issuing queries back to back. The run's window opens on the
// live collector (see Base.Metrics), so epoch processes record into it,
// and closes when the run ends; the engine may be Run multiple times, and
// each run returns a collector of its own covering only that run. Both
// engines run workloads through this one driver, so they measure
// identically.
func (b *Base) Run(spec RunSpec) (*Metrics, error) {
	eng, dev, cfg := b.eng, b.dev, b.cfg
	if b.err != nil {
		return nil, b.err
	}
	if err := spec.Validate(cfg.Keys, b.log.Fits); err != nil {
		return nil, err
	}
	m := b.Metrics()
	m.BeginWindow(dev, b.JournalStats(), eng.Now())

	r := &clientRun{b: b, m: m, remaining: spec.TotalQueries}
	// Under trace replay all clients pull from one shared replayer — the
	// single-worker simulation makes this race-free and deterministic —
	// and none builds a generator.
	var dist workload.Distribution
	switch {
	case spec.Trace != nil:
		r.replay = workload.NewReplayer(spec.Trace)
		if n := int64(len(spec.Trace.Ops)); spec.TotalQueries > n {
			r.remaining = n
		}
	case spec.Zipfian:
		dist = workload.NewZipfian(cfg.Keys, workload.DefaultTheta)
	default:
		dist = workload.Uniform{Keys: cfg.Keys}
	}

	rng := sim.NewRNG(cfg.Seed)
	clients := make([]client, spec.Threads)
	for t := range clients {
		c := &clients[t]
		c.run = r
		if r.replay == nil {
			// Split leaves rng as it was, so the streams do not depend on
			// whether other clients drew theirs.
			gen, err := workload.NewGenerator(dist, cfg.Sizer, spec.Mix, rng.Split(fmt.Sprintf("client-%d", t)))
			if err != nil {
				return nil, err
			}
			c.gen = gen
		}
		b.parked++
		eng.AtHandler(eng.Now(), c)
	}

	// timeline sampler
	if spec.SampleInterval > 0 {
		m.Timeline = stats.NewTimeline("kqps", "ckpt_active", "die_backlog_us", "free_blocks")
		lastQueries := uint64(0)
		start := eng.Now()
		var sample func()
		sample = func() {
			if r.done {
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
		if r.done {
			return
		}
		if !b.running {
			b.TriggerCheckpoint()
		}
		eng.Schedule(cfg.CheckpointInterval, tick)
	}
	eng.Schedule(cfg.CheckpointInterval, tick)

	eng.Run()
	if b.err == nil && eng.LiveProcs()+b.parked > 0 {
		b.err = fmt.Errorf("core: event queue ran dry with %d processes and %d clients blocked",
			eng.LiveProcs(), b.parked)
	}
	if b.err != nil {
		return nil, b.err
	}
	m.EndWindow(dev, b.JournalStats(), r.end)
	return m, nil
}

// clientRun is the state Run's clients share.
type clientRun struct {
	b         *Base
	m         *Metrics
	replay    *workload.Replayer
	remaining int64
	// done is set, and end taken, when the last client finishes.
	done bool
	end  sim.VTime
}

// client is one closed-loop client of Run: the kernel fires it to start
// and at every wake-up of its query, and it runs queries back to back,
// recording each, until the run's budget is spent.
type client struct {
	Query
	run *clientRun
	gen *workload.Generator
	// busy is set while a query is in flight, started at start with the
	// epoch counter at epoch0.
	busy   bool
	start  sim.VTime
	epoch0 uint64
}

// Fire resumes the client's query, then starts the next one, until a query
// parks or the budget is spent.
func (c *client) Fire() {
	r := c.run
	b := r.b
	for {
		if c.busy {
			if !c.Resume(b.host, b.eng, c) {
				return
			}
			c.busy = false
			during := b.running || b.epoch != c.epoch0
			r.m.NoteQuery(c.Op, b.eng.Now()-c.start, during)
		}
		if r.remaining == 0 {
			if b.parked--; b.parked == 0 {
				r.end = b.eng.Now()
				r.done = true
				b.eng.StopWhenIdle()
			}
			return
		}
		r.remaining--
		if r.replay != nil {
			c.Begin(r.replay.Next())
		} else {
			c.Begin(c.gen.Next())
		}
		c.busy, c.start, c.epoch0 = true, b.eng.Now(), b.epoch
	}
}
