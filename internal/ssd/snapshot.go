package ssd

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/sim"
)

// Fork returns a new controller on eng over f (a fork of src's FTL) whose
// state — controller stats, bus/CPU resource horizons and the unit cache
// with its LRU order — is a deep copy of src's, with src's configuration.
// It starts from a copy of src's struct, so a field added to the device is
// copied by default, and sets only its wiring: a command queue of its own,
// a pool of as many fresh command records as src's and the deallocator
// tick. eng must be a fork of src's kernel (sim.Engine.Fork), so the
// front-end lane handle names the same lane on it. src must be quiescent:
// every submitted command completed (all queue slots free) and no acquirer
// waiting. Anything else indicates in-flight work whose continuations
// cannot be copied. src is only read.
//
// The deallocator is armed one period after eng's clock, exactly as
// ResumeDeallocator arms it after a paused drain, so when eng stands at the
// drain's state the tick draws the sequence number the direct path's did.
func Fork(eng *sim.Engine, f *ftl.FTL, src *Device) (*Device, error) {
	if src.queue.Available() != src.cfg.QueueDepth || src.queue.Waiting() != 0 {
		return nil, fmt.Errorf("ssd: snapshot with %d/%d queue slots free and %d waiters (device not quiescent)",
			src.queue.Available(), src.cfg.QueueDepth, src.queue.Waiting())
	}
	d := new(Device)
	*d = *src
	d.eng, d.f = eng, f
	d.queue = sim.NewSemaphore(eng, d.cfg.QueueDepth)
	// As many command records as src holds ready, so the fork allocates
	// one exactly when src would.
	d.free = make([]*command, len(src.free))
	recs := make([]command, len(src.free))
	for i := range recs {
		d.free[i] = &recs[i]
	}
	if src.cache != nil {
		d.cache = src.cache.clone()
	}
	d.deallocArmed, d.deallocPaused = false, false
	if d.cfg.DeallocatorPeriod > 0 {
		d.armDeallocator()
	}
	return d, nil
}

// clone returns a deep copy of c.
func (c *unitCache) clone() *unitCache {
	out := *c
	// The slot arrays grow until the cache is full: keep their capacity.
	out.units = append(make([]int64, 0, cap(c.units)), c.units...)
	out.next = append(make([]int32, 0, cap(c.next)), c.next...)
	out.prev = append(make([]int32, 0, cap(c.prev)), c.prev...)
	out.index = c.index.Clone()
	return &out
}
