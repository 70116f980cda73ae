package ssd

import "fmt"

// CopyFrom makes d's mutable state — controller stats, bus/CPU resource
// horizons and the unit cache with its LRU order — a deep copy of src's.
// d must have been built from the same Config; it keeps its kernel, FTL,
// command queue and command-record pool. src must be quiescent: every
// submitted command completed (all queue slots free) and no acquirer
// waiting. Anything else indicates in-flight work whose continuations
// cannot be copied. src is only read.
//
// The deallocator is re-armed one period after d's clock, exactly as
// ResumeDeallocator would after a paused drain, so the caller restores d's
// kernel first.
func (d *Device) CopyFrom(src *Device) error {
	if d.cfg != src.cfg {
		return fmt.Errorf("ssd: copy between devices of different configuration")
	}
	if src.queue.Available() != src.cfg.QueueDepth || src.queue.Waiting() != 0 {
		return fmt.Errorf("ssd: snapshot with %d/%d queue slots free and %d waiters (device not quiescent)",
			src.queue.Available(), src.cfg.QueueDepth, src.queue.Waiting())
	}
	own := *d
	*d = *src
	d.eng, d.f, d.queue, d.free = own.eng, own.f, own.queue, own.free
	if src.cache != nil {
		d.cache = own.cache
		d.cache.copyFrom(src.cache)
	}
	// The constructor's tick event was discarded with the kernel restore;
	// forget it and arm a fresh one on the restored timeline.
	d.deallocArmed, d.deallocPaused = false, false
	if d.cfg.DeallocatorPeriod > 0 {
		d.armDeallocator()
	}
	return nil
}

// copyFrom makes c a deep copy of src, which has the same capacity.
func (c *unitCache) copyFrom(src *unitCache) {
	own := *c
	*c = *src
	c.units = append(own.units[:0], src.units...)
	c.next = append(own.next[:0], src.next...)
	c.prev = append(own.prev[:0], src.prev...)
	c.index = own.index
	c.index.CopyFrom(&src.index)
}
