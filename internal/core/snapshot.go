package core

import "fmt"

// EngineState is a deep copy of the storage engine's mutable state at a
// quiescent instant: per-key version truth, journal placement and stats, a
// deep clone of the active JMT, checkpoint accounting and the host cache.
// Metrics are not captured — Run resets them — and neither is the RNG: it is
// never consulted before Run (Load is deterministic and client streams are
// Split from the seed at Run time), so a fork re-seeds from its own Config
// and may legitimately run a different seed than the template.
type EngineState struct {
	version []int64
	durable []int64
	ckpted  []int64
	deleted []bool

	ckptEpoch   uint64
	remapTotals remapStatsValue

	jrActive int
	jrHead   int64
	jrStats  JournalStats
	jmt      *JMT

	// hostCacheKeys lists resident keys oldest-first (front-insert replay
	// order), nil when the host cache is disabled.
	hostCacheKeys []int64
}

// remapStatsValue avoids importing ssd in the exported struct shape; it is
// the same value type as ssd.RemapStats.
type remapStatsValue = struct{ Remapped, RMWs, Skipped int }

// Snapshot captures the engine's mutable state. It must be called at a
// quiescent instant: no checkpoint running, no commit in flight, no buffered
// journal batch, no closed query gate. Anything else means live process
// stacks reference this state and the capture would be unsound.
func (en *Engine) Snapshot() (*EngineState, error) {
	switch {
	case en.ckptRunning || en.ckptSnapshot != nil:
		return nil, fmt.Errorf("core: snapshot during a checkpoint")
	case en.jr.commitInFlight || en.jr.cutting || en.jr.hasPending():
		return nil, fmt.Errorf("core: snapshot with journal activity in flight")
	case en.gateClosed:
		return nil, fmt.Errorf("core: snapshot with the query gate closed")
	}
	s := &EngineState{
		version: append([]int64(nil), en.version...),
		durable: append([]int64(nil), en.durable...),
		ckpted:  append([]int64(nil), en.ckpted...),
		deleted: append([]bool(nil), en.deleted...),

		ckptEpoch: en.ckptEpoch,
		remapTotals: remapStatsValue{
			Remapped: en.remapTotals.Remapped,
			RMWs:     en.remapTotals.RMWs,
			Skipped:  en.remapTotals.Skipped,
		},

		jrActive: en.jr.active,
		jrHead:   en.jr.head,
		jrStats:  en.jr.stats,
		jmt:      en.jr.jmt.clone(),
	}
	if en.hostCache != nil {
		s.hostCacheKeys = make([]int64, 0, en.hostCache.ll.Len())
		for el := en.hostCache.ll.Back(); el != nil; el = el.Prev() {
			s.hostCacheKeys = append(s.hostCacheKeys, el.Value.(int64))
		}
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
	copy(en.durable, s.durable)
	copy(en.ckpted, s.ckpted)
	copy(en.deleted, s.deleted)

	en.ckptEpoch = s.ckptEpoch
	en.remapTotals.Remapped = s.remapTotals.Remapped
	en.remapTotals.RMWs = s.remapTotals.RMWs
	en.remapTotals.Skipped = s.remapTotals.Skipped

	en.jr.active = s.jrActive
	en.jr.head = s.jrHead
	en.jr.stats = s.jrStats
	en.jr.jmt = s.jmt.clone()
	en.jr.pendFrom, en.jr.pendBytes = len(en.jr.jmt.entries), 0
	en.jr.nextBatch = nil
	en.jr.commitInFlight = false
	en.jr.inFlightDone = nil
	en.jr.cutting = false

	en.ckptRunning = false
	en.ckptDoneFut = nil
	en.ckptSnapshot = nil
	en.gateClosed = false
	en.gateOpen = nil

	if en.hostCache != nil {
		en.hostCache.ll.Init()
		clear(en.hostCache.index)
		for _, k := range s.hostCacheKeys {
			en.hostCache.index[k] = en.hostCache.ll.PushFront(k)
		}
	}
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
