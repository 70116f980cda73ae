package ssd

import (
	"runtime"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// TestDeviceCommandAllocs guards the command path's allocation budget: on a
// warmed device a command is exactly one heap object, its record. A DRAM
// cache-hit Read and a Write that stays in the open page buffer reach no
// flash operation; a cache-miss Read, a Write with a read-modify-write read
// and a Flush with programs in flight join their flash work in the fan-in
// embedded in the record. Nothing else on their paths may allocate.
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

	// With the DRAM cache off every read goes to flash.
	e, d = testDevice(t, func(c *Config) { c.CacheBytes = 0 })
	d.Write(0, 16384, AreaData) // eight full pages
	d.Flush(AreaData)
	d.Read(0, 2048) // warm the read path's scratch
	e.Run()
	ftlStats := func() (reads, rmws uint64) {
		return d.FTL().Array().Stats().Reads, d.FTL().Stats().HostRMWReads
	}
	for i := int64(0); i < 8; i++ {
		reads, _ := ftlStats()
		if n := mallocs(func() { d.Read(i*2048, 2048); e.Run() }); n != 1 {
			t.Errorf("cache-miss Read %d allocates %d objects, want 1", i, n)
		}
		if r, _ := ftlStats(); r == reads {
			t.Fatal("a cache-miss read never reached flash")
		}
	}
	for i := int64(0); i < 8; i++ {
		_, rmws := ftlStats()
		if n := mallocs(func() { d.Write(i*2048+100, 100, AreaData); e.Run() }); n != 1 {
			t.Errorf("read-modify-write Write %d allocates %d objects, want 1", i, n)
		}
		if _, r := ftlStats(); r == rmws {
			t.Fatal("a partial overwrite never read flash")
		}
	}
	for i := int64(0); i < 8; i++ {
		d.Write(i*2048, 2048, AreaData) // a full page: its program stays in flight
		e.RunUntil(e.Now() + 50*sim.Microsecond)
		var flush *sim.Future
		if n := mallocs(func() {
			flush = d.Flush(AreaData)
			e.RunUntil(e.Now() + 50*sim.Microsecond)
		}); n != 1 {
			t.Errorf("Flush %d with a program in flight allocates %d objects, want 1", i, n)
		}
		if flush.Done() {
			t.Fatal("Flush did not wait for the program in flight")
		}
		e.Run()
		if !flush.Done() {
			t.Fatal("Flush never completed")
		}
	}
}

// TestIdleTickAllocs: an idle device's deallocator ticks allocate
// nothing. Each tick re-arms itself through the kernel; a tick handler
// built per arm (a method value) would cost one heap object every
// DeallocatorPeriod of virtual time.
func TestIdleTickAllocs(t *testing.T) {
	e, d := testDevice(t, func(c *Config) { c.DeallocatorPeriod = 10 * sim.Millisecond })
	d.Write(0, 4096, AreaData)
	d.Flush(AreaData)
	e.RunUntil(e.Now() + 4*d.cfg.DeallocatorPeriod) // drain, warm the queue
	ticks := 0
	if n := mallocs(func() {
		for range 100 {
			before := e.Executed()
			e.RunUntil(e.Now() + d.cfg.DeallocatorPeriod)
			ticks += int(e.Executed() - before)
		}
	}); n != 0 {
		t.Errorf("100 idle deallocator periods allocate %d objects, want 0", n)
	}
	if ticks < 100 {
		t.Fatalf("100 idle periods ran %d events, want a tick each", ticks)
	}
}

// mallocs reports the heap objects one call of f allocates, counted as
// testing.AllocsPerRun counts them but without its warm-up call, so f may
// consume state set up just before it.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
