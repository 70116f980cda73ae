package ssd

import (
	"fmt"
	"slices"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// readerEvent is one logged observation of the concurrent-reader scenario:
// the event it happened in, and either a read completion (reader, i) or a
// sample of the device counters (reader -1).
type readerEvent struct {
	at        sim.VTime
	reader, i int
	readBytes uint64
	commands  uint64
	waits     uint64
	hits      uint64
}

// runReaders runs several reader processes against one device with two
// queue slots. Reader r issues reads of varying size and offset (cache
// hits and flash reads), each after a host overhead of 10 or 20 µs, so
// issues, slot grants and completions of different readers collide on the
// same instants. A sampler logs the device counters every microsecond.
// afterRead selects ReadAfter; otherwise the reader sleeps, then calls
// Read. Every future is released after its Wait.
func runReaders(t *testing.T, afterRead bool) ([]readerEvent, uint64, Stats) {
	t.Helper()
	e, d := testDevice(t, func(c *Config) {
		c.QueueDepth = 2
		c.CacheBytes = 8 << 10
	})
	for off := int64(0); off < 64<<10; off += 16 << 10 {
		d.Release(d.Write(off, 16<<10, AreaData))
	}
	d.Release(d.Flush(AreaData))
	e.Run()

	var log []readerEvent
	sample := func(reader, i int) {
		st := d.Stats()
		log = append(log, readerEvent{at: e.Now(), reader: reader, i: i,
			readBytes: st.HostReadBytes, commands: st.Commands, waits: st.QueueWait.N, hits: st.CacheHits})
	}
	const readers, reads = 5, 12
	live := readers
	for r := 0; r < readers; r++ {
		e.Go(fmt.Sprintf("reader%d", r), func(p *sim.Proc) {
			for i := 0; i < reads; i++ {
				overhead := sim.VTime(10+10*((r+i)%2)) * sim.Microsecond
				off := int64((r*7+i*5)%60) << 10
				n := int64(512 * (1 + (r+i)%4))
				var f *sim.Future
				if afterRead {
					f = d.ReadAfter(overhead, off, n)
				} else {
					p.Sleep(overhead)
					f = d.Read(off, n)
				}
				p.Wait(f)
				d.Release(f)
				sample(r, i)
			}
			live--
		})
	}
	var tick func()
	tick = func() {
		sample(-1, 0)
		if live > 0 {
			e.Schedule(sim.Microsecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	return log, e.Executed(), d.Stats()
}

// TestReadAfterMatchesSleepRead is ReadAfter's exactness oracle: with
// several readers contending for two queue slots, ReadAfter(overhead, ...)
// observes exactly what Sleep(overhead) then Read does — every completion
// instant, the device counters at every microsecond, the final counters and
// the executed-event count.
func TestReadAfterMatchesSleepRead(t *testing.T) {
	want, wantN, wantSt := runReaders(t, false)
	got, gotN, gotSt := runReaders(t, true)
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("observation %d: ReadAfter %+v, Sleep+Read %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("ReadAfter logged %d observations, Sleep+Read %d", len(got), len(want))
	}
	if gotN != wantN {
		t.Fatalf("ReadAfter executed %d events, Sleep+Read %d", gotN, wantN)
	}
	if gotSt != wantSt {
		t.Fatalf("final stats differ:\nReadAfter  %+v\nSleep+Read %+v", gotSt, wantSt)
	}
	if wantSt.CacheHits == 0 || wantSt.CacheMisses == 0 || wantSt.QueueWait.Sum == 0 {
		t.Fatalf("scenario too tame (hits %d, misses %d, queue wait %v): it must mix cache hits, flash reads and queueing",
			wantSt.CacheHits, wantSt.CacheMisses, wantSt.QueueWait.Sum)
	}
}

// TestReleaseReusesOnlyFinished pins the ownership rule: a command released
// in flight keeps its record until it finishes, and only then does the
// record serve a new command; one released after finishing is reused at
// once.
func TestReleaseReusesOnlyFinished(t *testing.T) {
	e, d := testDevice(t, func(c *Config) { c.CacheBytes = 0 })
	d.Release(d.Write(0, 2048, AreaData))
	d.Release(d.Flush(AreaData))
	e.Run()

	inFlight := d.Read(0, 2048) // a flash read: tens of microseconds
	d.Release(inFlight)
	e.RunUntil(e.Now() + sim.Microsecond)
	if inFlight.Done() {
		t.Fatal("the read finished within a microsecond; the test needs it in flight")
	}
	other := d.Read(0, 512)
	if other == inFlight {
		t.Fatal("a record released in flight served a new command before finishing")
	}
	e.Run()
	if !inFlight.Done() || !other.Done() {
		t.Fatal("reads never completed")
	}
	if next := d.Flush(AreaData); next != inFlight {
		t.Fatal("the finished, released record was not reused")
	}
	e.Run()

	d.Release(other) // already finished: back on the free list at once
	if next := d.Read(0, 512); next != other {
		t.Fatal("a record released after finishing was not reused")
	}
	e.Run()
}

// TestReleasePanics: a second Release of one future, and a Release of a
// future the device did not issue, are holder bugs and panic.
func TestReleasePanics(t *testing.T) {
	e, d := testDevice(t, nil)
	_, d2 := testDevice(t, nil)
	f := d.Flush(AreaData)
	e.Run()
	d.Release(f)
	cases := []struct {
		name string
		f    *sim.Future
		dev  *Device
	}{
		{"twice", f, d},
		{"plain future", sim.NewFuture(e), d},
		{"shared completed future", sim.CompletedFuture(e), d},
		{"another device's command", d2.Flush(AreaData), d},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Release did not panic", c.name)
				}
			}()
			c.dev.Release(c.f)
		}()
	}
}

// TestUnreleasedNeverReused: a future its holder keeps is never recycled,
// even when its command times out and completes only after the backoff
// stage, and a released command that times out keeps its record through
// the backoff.
func TestUnreleasedNeverReused(t *testing.T) {
	e, d := testDevice(t, func(c *Config) {
		c.QueueDepth = 1
		c.CacheBytes = 0
		c.CommandTimeout = sim.Microsecond
	})
	d.Release(d.Write(0, 2048, AreaData))
	d.Release(d.Flush(AreaData))
	e.Run()

	kept := d.Read(0, 2048)
	released := d.Read(0, 2048)
	d.Release(released)
	e.RunUntil(e.Now() + 200*sim.Microsecond) // both back ends done; backoffs pending
	if kept.Done() || released.Done() {
		t.Fatal("a timed-out read completed before its backoff")
	}
	if d.Stats().Timeouts == 0 {
		t.Fatal("no command timed out; the test needs the backoff stage")
	}
	if f := d.Flush(AreaData); f == released || f == kept {
		t.Fatal("a record in its backoff stage served a new command")
	}
	e.Run()
	if !kept.Done() || !released.Done() {
		t.Fatal("timed-out reads never completed")
	}
	var issued []*sim.Future
	for i := 0; i < 8; i++ {
		f := d.Read(0, 512)
		if f == kept {
			t.Fatal("an unreleased future was recycled")
		}
		issued = append(issued, f)
		e.Run()
		d.Release(f)
	}
	if !slices.Contains(issued, released) {
		t.Fatal("the released record was never reused")
	}
	if !kept.Done() {
		t.Fatal("the kept future changed state")
	}
}

// TestReleasedCommandAllocs: once released records are on the free list, a
// cache-hit Read, a buffered Write and a Flush allocate nothing at all
// (TestDeviceCommandAllocs pins one object per unreleased command).
func TestReleasedCommandAllocs(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Release(d.Write(0, 4096, AreaData))
	d.Release(d.Flush(AreaData))
	e.Run()

	if n := testing.AllocsPerRun(100, func() {
		d.Release(d.Read(0, 512))
		e.Run()
	}); n != 0 {
		t.Errorf("released cache-hit Read allocates %.2f objects, want 0", n)
	}
	for i := 0; i < 8; i++ {
		off := int64(i%2) * 2048
		programs := d.FTL().Array().Stats().Programs
		if n := testing.AllocsPerRun(1, func() {
			d.Release(d.Write(off, 512, AreaData))
			off += 512
			e.Run()
		}); n != 0 {
			t.Errorf("released buffered Write %d allocates %.0f objects, want 0", i, n)
		}
		if d.FTL().Array().Stats().Programs != programs {
			t.Fatal("a buffered write reached flash")
		}
		if n := testing.AllocsPerRun(1, func() {
			d.Release(d.Flush(AreaData))
			e.Run()
		}); n != 0 {
			t.Errorf("released Flush %d allocates %.0f objects, want 0", i, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		f := d.ReadAfter(10*sim.Microsecond, 0, 512)
		e.Run()
		d.Release(f)
	}); n != 0 {
		t.Errorf("released ReadAfter allocates %.2f objects, want 0", n)
	}
}
