package core

import (
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/trace"
)

// Epochs runs a host engine's checkpoint epochs — the journal engine's
// checkpoint, the LSM engine's memtable flush — one at a time, and owns
// the query gate LockDuringCheckpoint closes while one runs. Both engines
// embed it, which gives them TriggerCheckpoint, CheckpointRunning and
// CheckpointEpoch.
type Epochs struct {
	eng    *sim.Engine
	name   string
	lock   bool
	tracer *trace.Tracer
	// work is one epoch's engine-specific part, given the epoch's start;
	// then, when non-nil, runs after the epoch has closed.
	work func(p *sim.Proc, start sim.VTime)
	then func()

	running bool
	epoch   uint64
	done    *sim.Future

	gateClosed bool
	gateOpen   *sim.Future
}

// NewEpochs returns an idle epoch runner whose epochs run work as
// simulated process name.
func NewEpochs(eng *sim.Engine, name string, cfg HostConfig, work func(p *sim.Proc, start sim.VTime), then func()) Epochs {
	return Epochs{eng: eng, name: name, lock: cfg.LockDuringCheckpoint, tracer: cfg.Tracer, work: work, then: then}
}

// CheckpointRunning reports whether an epoch is in progress.
func (c *Epochs) CheckpointRunning() bool { return c.running }

// CheckpointEpoch advances at every epoch start and finish.
func (c *Epochs) CheckpointEpoch() uint64 { return c.epoch }

// Gate blocks p while query admission is locked (checkpoint locking mode).
func (c *Epochs) Gate(p *sim.Proc) {
	for c.gateClosed {
		p.Wait(c.gateOpen)
	}
}

// TriggerCheckpoint starts an epoch unless one is already running, and
// returns a future completing when the (possibly already running) epoch
// finishes.
func (c *Epochs) TriggerCheckpoint() *sim.Future {
	if c.running {
		return c.done
	}
	c.running = true
	c.epoch++
	c.done = sim.NewFuture(c.eng)
	done := c.done
	if c.lock {
		c.gateClosed = true
		c.gateOpen = sim.NewFuture(c.eng)
	}
	c.eng.Go(c.name, func(p *sim.Proc) {
		start := p.Now()
		c.work(p, start)
		c.tracer.Emit(p.Now(), trace.KindCheckpointEnd, int64(p.Now()-start), "")
		c.running = false
		c.epoch++
		if c.lock {
			c.gateClosed = false
			c.gateOpen.Complete()
		}
		done.Complete()
		if c.then != nil {
			c.then()
		}
	})
	return done
}

// ResetEpochs idles the runner at the given epoch count (snapshot
// restore).
func (c *Epochs) ResetEpochs(epoch uint64) {
	c.epoch = epoch
	c.running, c.done = false, nil
	c.gateClosed, c.gateOpen = false, nil
}
