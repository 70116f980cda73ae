package ssd

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/sim"
)

// DeviceState is a deep copy of the controller's mutable state at a
// quiescent instant (no in-flight commands, deallocator paused or idle).
// Captured by Snapshot and installed into a freshly constructed Device by
// Restore — the fork side of the load-phase snapshot-and-fork optimization.
// FIFOResources are pure arithmetic (busy-until horizon + busy total), so
// capturing them by value is exact.
type DeviceState struct {
	stats Stats
	bus   sim.FIFOResource
	cpu   sim.FIFOResource
	// cacheUnits lists resident cache units oldest-first, so replaying
	// them as front-insertions rebuilds the exact LRU order.
	cacheUnits []int64
}

// Snapshot captures the device's mutable state. It must be called at a
// quiescent instant: every submitted command completed (all queue slots
// free) and no acquirer waiting. Anything else indicates in-flight work
// whose continuations cannot be captured, and Snapshot returns an error.
func (d *Device) Snapshot() (*DeviceState, error) {
	if d.queue.Available() != d.cfg.QueueDepth || d.queue.Waiting() != 0 {
		return nil, fmt.Errorf("ssd: snapshot with %d/%d queue slots free and %d waiters (device not quiescent)",
			d.queue.Available(), d.cfg.QueueDepth, d.queue.Waiting())
	}
	s := &DeviceState{stats: d.stats, bus: d.bus, cpu: d.cpu}
	if d.cache != nil {
		s.cacheUnits = make([]int64, 0, d.cache.index.Len())
		for sl := d.cache.tail; sl >= 0; sl = d.cache.prev[sl] {
			s.cacheUnits = append(s.cacheUnits, d.cache.units[sl])
		}
	}
	return s, nil
}

// Restore installs a previously captured state into d, which must be freshly
// constructed from the same Config (same queue depth, cache capacity and
// deallocator period). The deallocator is re-armed one period after the
// restored clock, exactly as ResumeDeallocator would after a paused drain —
// the caller must have restored the sim engine first.
func (d *Device) Restore(s *DeviceState) {
	d.stats = s.stats
	d.bus = s.bus
	d.cpu = s.cpu
	if d.cache != nil {
		d.cache.reset()
		for _, u := range s.cacheUnits {
			d.cache.insertFront(u)
		}
	}
	// The constructor's tick event was discarded with the engine restore;
	// forget it and arm a fresh one on the restored timeline.
	d.deallocArmed = false
	d.deallocPaused = false
	if d.cfg.DeallocatorPeriod > 0 {
		d.armDeallocator()
	}
}
