package core

import (
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
)

// ForkEngine returns a journal engine on eng over dev (forks of src's
// kernel and device) whose state is a deep copy of src's, a quiescent
// journal engine of the same shape (same Keys; the layout is a pure
// function of configuration, immutable, and shared with src): the base's
// version truth and epoch count,
// the checkpointed versions, the journal's log state and deep clones of
// the active and spare JMTs. It starts from a copy of src's struct, so a
// field added to the engine is copied by default. The fork runs under cfg:
// the run-phase settings, seed included, are its own (client streams are
// Split from the seed at Run time), and so is the log format the strategy
// selects. src is rejected unless it is a quiescent journal engine (see
// ForkBase); it is only read.
func ForkEngine(eng *sim.Engine, dev *ssd.Device, cfg Config, src Host) (*Engine, error) {
	s, ok := src.(*Engine)
	if !ok {
		return nil, fmt.Errorf("core: fork of a foreign engine (%T)", src)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	en := new(Engine)
	*en = *s
	en.cfg = cfg
	en.jr = s.jr.fork(eng, dev, cfg)
	base, err := ForkBase(&s.Base, eng, dev, cfg.HostConfig, en, en.jr, en.checkpoint, nil)
	if err != nil {
		return nil, err
	}
	en.Base = base
	en.ckpted = slices.Clone(s.ckpted)
	return en, nil
}

// fork returns a copy of j, sharing its immutable layout, on eng and dev,
// in the format cfg's strategy selects.
func (j *journal) fork(eng *sim.Engine, dev *ssd.Device, cfg Config) *journal {
	c := new(journal)
	*c = *j
	c.aligned, c.header, c.compress = cfg.Strategy.SectorAligned(), cfg.Strategy.LogHeader(), cfg.CompressRatio
	c.jmt = j.jmt.clone()
	if j.spare != nil {
		c.spare = j.spare.clone()
	}
	c.GroupCommit = ForkGroupCommit(eng, dev, c, &c.jmt.entries, j.GroupCommit)
	return c
}
