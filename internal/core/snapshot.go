package core

import (
	"fmt"
	"slices"
)

// EngineState is a deep copy of the storage engine's mutable state at a
// quiescent instant: the base's version truth and epoch count, the
// checkpointed versions, the journal's log state and a deep clone of the
// active JMT. Metrics are not captured (Run resets them), and neither is
// the RNG: it is never consulted before Run (Load is deterministic and
// client streams are Split from the seed at Run time), so a fork re-seeds
// from its own Config and may legitimately run a different seed than the
// template.
type EngineState struct {
	BaseState
	ckpted []int64

	log LogState
	jmt *JMT
}

// SnapshotState captures the engine's mutable state as an *EngineState. It
// must be called at a quiescent instant (see Base.CaptureBase).
func (en *Engine) SnapshotState() (any, error) {
	base, err := en.CaptureBase()
	if err != nil {
		return nil, err
	}
	return &EngineState{
		BaseState: base,
		ckpted:    slices.Clone(en.ckpted),
		log:       en.jr.State(),
		jmt:       en.jr.jmt.clone(),
	}, nil
}

// RestoreState installs a state captured by SnapshotState into en, which
// must be freshly constructed from the same Config shape (same Keys; layout
// is a pure function of configuration). The JMT is cloned again so the
// captured state stays pristine across any number of restores.
func (en *Engine) RestoreState(state any) error {
	s, ok := state.(*EngineState)
	if !ok {
		return fmt.Errorf("core: restore with a foreign engine state (%T)", state)
	}
	if err := en.RestoreBase(s.BaseState); err != nil {
		return err
	}
	copy(en.ckpted, s.ckpted)
	en.jr.jmt = s.jmt.clone()
	en.jr.Restore(s.log, &en.jr.jmt.entries)
	en.ckptSnapshot = nil
	return nil
}
