package ssd

import (
	"container/list"
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/checkin-kv/checkin/internal/dense"
	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// refLRU is the map-backed reference the dense-indexed unit cache is checked
// against: container/list order (front = most recent) plus a Go map index.
type refLRU struct {
	capacity int
	ll       *list.List
	index    map[int64]*list.Element
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, ll: list.New(), index: map[int64]*list.Element{}}
}

func (r *refLRU) lookup(first, last int64) (miss int) {
	for u := first; u <= last; u++ {
		if el, ok := r.index[u]; ok {
			r.ll.MoveToFront(el)
		} else {
			miss++
		}
	}
	return miss
}

func (r *refLRU) insert(first, last int64) {
	for u := first; u <= last; u++ {
		if el, ok := r.index[u]; ok {
			r.ll.MoveToFront(el)
			continue
		}
		r.index[u] = r.ll.PushFront(u)
		if r.ll.Len() > r.capacity {
			old := r.ll.Back()
			r.ll.Remove(old)
			delete(r.index, old.Value.(int64))
		}
	}
}

func (r *refLRU) invalidate(first, last int64) {
	for u := first; u <= last; u++ {
		if el, ok := r.index[u]; ok {
			r.ll.Remove(el)
			delete(r.index, u)
		}
	}
}

// cacheDevice builds a device whose logical space spans several index
// chunks, with a data cache of capUnits units.
func cacheDevice(t *testing.T, capUnits int64) *Device {
	t.Helper()
	e := sim.NewEngine()
	arr := mustArray(t, e, nand.Geometry{
		Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 1, PlanesPerDie: 1,
		BlocksPerPlane: 256, PagesPerBlock: 16, PageSize: 2048,
	})
	fcfg := testFTLConfig(2048)
	fcfg.MapCacheBytes = 1 << 30
	f, err := ftl.New(e, arr, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := testConfig()
	dcfg.DeallocatorPeriod = 0
	dcfg.CacheBytes = capUnits * int64(f.UnitSize())
	d, err := New(e, f, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameCache reports the first disagreement between the device cache and the
// reference: recency order, the unit → slot index, the resident count, and
// index chunks allocated exactly where resident units live.
func sameCache(c *unitCache, ref *refLRU) error {
	el := ref.ll.Front()
	n := int64(0)
	chunks := map[int64]bool{}
	for s := c.head; s >= 0; s = c.next[s] {
		if el == nil {
			return fmt.Errorf("cache holds more units than the reference (%d)", ref.ll.Len())
		}
		u := el.Value.(int64)
		if c.units[s] != u {
			return fmt.Errorf("recency position %d holds unit %d, want %d", n, c.units[s], u)
		}
		if got := c.slot(u); got != s {
			return fmt.Errorf("unit %d indexed at slot %d, resident at %d", u, got, s)
		}
		chunks[u/dense.ChunkSize] = true
		el = el.Next()
		n++
	}
	if el != nil || c.index.Len() != int(n) {
		return fmt.Errorf("cache walks %d units, index holds %d, reference %d", n, c.index.Len(), ref.ll.Len())
	}
	if got := c.index.Chunks(); got != len(chunks) {
		return fmt.Errorf("%d index chunks allocated, resident units span %d", got, len(chunks))
	}
	var bad error
	c.index.CheckCounts(func(format string, args ...any) {
		if bad == nil {
			bad = fmt.Errorf(format, args...)
		}
	})
	return bad
}

// TestUnitCacheOracle drives the controller's DRAM cache through random
// lookups, inserts and invalidations of byte ranges — hot ranges straddling
// index-chunk boundaries plus uniform traffic over the whole logical space —
// against the map-backed reference LRU. Every so often the run continues on
// a fork of the current device.
func TestUnitCacheOracle(t *testing.T) {
	const capUnits = 48
	d := cacheDevice(t, capUnits)
	ref := newRefLRU(capUnits)
	unit := int64(d.f.UnitSize())
	units := d.LogicalBytes() / unit
	if units < 4*dense.ChunkSize {
		t.Fatalf("logical space of %d units spans too few index chunks", units)
	}
	rng := rand.New(rand.NewPCG(21, 25))
	hot := []int64{dense.ChunkSize - 8, 2*dense.ChunkSize - 3, 3 * dense.ChunkSize}
	restores := 0
	for step := 0; step < 20000; step++ {
		var u int64
		if rng.IntN(5) > 0 {
			u = hot[rng.IntN(len(hot))] + rng.Int64N(24)
		} else {
			u = rng.Int64N(units - 8)
		}
		off := u*unit + rng.Int64N(unit)
		n := 1 + rng.Int64N(4*unit)
		first, last := d.unitsOf(off, n)
		h0, m0 := d.stats.CacheHits, d.stats.CacheMisses
		switch rng.IntN(10) {
		case 0, 1, 2, 3:
			if got, want := d.cacheLookup(off, n), ref.lookup(first, last); got != want {
				t.Fatalf("step %d: lookup [%d,%d] missed %d units, reference %d", step, first, last, got, want)
			}
			span := uint64(last - first + 1)
			if h, m := d.stats.CacheHits-h0, d.stats.CacheMisses-m0; h+m != span {
				t.Fatalf("step %d: lookup counted %d hits + %d misses over %d units", step, h, m, span)
			}
		case 4, 5, 6, 7:
			d.cacheInsert(off, n)
			ref.insert(first, last)
		default:
			d.cacheInvalidate(off, n)
			ref.invalidate(first, last)
		}
		if err := sameCache(d.cache, ref); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%2500 == 2499 {
			fork, err := Fork(d.eng, d.f, d)
			if err != nil {
				t.Fatal(err)
			}
			d = fork
			if err := sameCache(d.cache, ref); err != nil {
				t.Fatalf("step %d: after restore: %v", step, err)
			}
			restores++
		}
	}
	if restores == 0 || d.stats.CacheHits == 0 {
		t.Fatalf("oracle run exercised %d restores and %d hits", restores, d.stats.CacheHits)
	}
}
