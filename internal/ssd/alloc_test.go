package ssd

import (
	"testing"
)

// TestDeviceCommandAllocs guards the command path's allocation budget: on a
// warmed device a command is exactly one heap object, its record. A DRAM
// cache-hit Read and a Write that stays in the open page buffer reach no
// flash operation, so nothing else on their path may allocate.
func TestDeviceCommandAllocs(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Write(0, 4096, AreaData)
	d.Flush(AreaData)
	e.Run()

	if n := testing.AllocsPerRun(100, func() {
		d.Read(0, 512)
		e.Run()
	}); n != 1 {
		t.Errorf("cache-hit Read allocates %.2f objects, want 1", n)
	}
	if d.Stats().CacheHits == 0 {
		t.Fatal("reads never hit the cache")
	}

	// A page holds four 512-byte units; AllocsPerRun(1) issues two writes
	// (warm-up and measured) into the open page, and the Flush outside the
	// measurement empties the buffer again.
	for i := 0; i < 8; i++ {
		off := int64(i%2) * 2048
		programs := d.FTL().Array().Stats().Programs
		if n := testing.AllocsPerRun(1, func() {
			d.Write(off, 512, AreaData)
			off += 512
			e.Run()
		}); n != 1 {
			t.Errorf("buffered Write %d allocates %.0f objects, want 1", i, n)
		}
		if d.FTL().Array().Stats().Programs != programs {
			t.Fatal("a buffered write reached flash")
		}
		d.Flush(AreaData)
		e.Run()
	}
}
