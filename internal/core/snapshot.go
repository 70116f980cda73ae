package core

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/ssd"
)

// EngineState is a deep copy of the storage engine's mutable state at a
// quiescent instant: per-key version truth, the journal's log state, a deep
// clone of the active JMT and checkpoint accounting.
// Metrics are not captured — Run resets them — and neither is the RNG: it is
// never consulted before Run (Load is deterministic and client streams are
// Split from the seed at Run time), so a fork re-seeds from its own Config
// and may legitimately run a different seed than the template.
type EngineState struct {
	version []int64
	ckpted  []int64
	deleted []bool

	ckptEpoch   uint64
	remapTotals ssd.RemapStats

	log LogState
	jmt *JMT
}

// Snapshot captures the engine's mutable state. It must be called at a
// quiescent instant: no checkpoint running (so no closed query gate), no
// commit in flight, no buffered journal batch. Anything else means live process
// stacks reference this state and the capture would be unsound.
func (en *Engine) Snapshot() (*EngineState, error) {
	switch {
	case en.running || en.ckptSnapshot != nil:
		return nil, fmt.Errorf("core: snapshot during a checkpoint")
	case !en.jr.Quiet():
		return nil, fmt.Errorf("core: snapshot with journal activity in flight")
	}
	s := &EngineState{
		version: append([]int64(nil), en.version...),
		ckpted:  append([]int64(nil), en.ckpted...),
		deleted: append([]bool(nil), en.deleted...),

		ckptEpoch:   en.epoch,
		remapTotals: en.remapTotals,

		log: en.jr.State(),
		jmt: en.jr.jmt.clone(),
	}
	return s, nil
}

// Restore installs a previously captured state into en, which must be
// freshly constructed from the same Config shape (same Keys; layout is a
// pure function of configuration). The JMT is cloned again so the captured
// state stays pristine across any number of restores.
func (en *Engine) Restore(s *EngineState) error {
	if len(s.version) != len(en.version) {
		return fmt.Errorf("core: restore with %d keys into an engine with %d", len(s.version), len(en.version))
	}
	copy(en.version, s.version)
	copy(en.ckpted, s.ckpted)
	copy(en.deleted, s.deleted)

	en.remapTotals = s.remapTotals

	en.jr.jmt = s.jmt.clone()
	en.jr.Restore(s.log, &en.jr.jmt.entries)

	en.ResetEpochs(s.ckptEpoch)
	en.ckptSnapshot = nil
	en.metrics = NewMetrics()
	return nil
}

// SnapshotState and RestoreState adapt Snapshot/Restore to the engine-
// agnostic host interface (checkin.HostEngine): each backend's state type
// travels as an opaque value and is checked back into shape on restore.

// SnapshotState captures the engine's mutable state as an opaque value.
func (en *Engine) SnapshotState() (any, error) { return en.Snapshot() }

// RestoreState installs a state previously captured by SnapshotState.
func (en *Engine) RestoreState(s any) error {
	st, ok := s.(*EngineState)
	if !ok {
		return fmt.Errorf("core: restore with a foreign engine state (%T)", s)
	}
	return en.Restore(st)
}
