package ssd

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// testConfig is DefaultConfig with the settings the stack's Config
// carries: queue depth, link bandwidth and a 64 MB data cache.
func testConfig() Config {
	c := DefaultConfig()
	c.QueueDepth = 64
	c.PCIeMBps = 3200
	c.CacheBytes = 64 << 20
	return c
}

// testFTLConfig is ftl.DefaultConfig with the settings the stack's Config
// carries, for flash pages of pageSize bytes, and 30% over-provisioning.
func testFTLConfig(pageSize int) ftl.Config {
	c := ftl.DefaultConfig()
	c.UnitSize = 512
	c.OverProvision = 0.3
	c.Parallelism = 4
	c.MapCacheBytes = 32 << 20
	c.MetaFlushEntries = pageSize / 8
	return c
}

func testDevice(t *testing.T, mut func(*Config)) (*sim.Engine, *Device) {
	t.Helper()
	e := sim.NewEngine()
	geo := nand.Geometry{
		Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 1, PlanesPerDie: 1,
		BlocksPerPlane: 32, PagesPerBlock: 16, PageSize: 2048,
	}
	tim := nand.Timing{
		ReadPage: 50 * sim.Microsecond, ProgramPage: 500 * sim.Microsecond,
		EraseBlock: 3 * sim.Millisecond, CmdOverhead: sim.Microsecond, ChannelMBps: 400,
	}
	arr, err := nand.New(e, geo, tim)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := testFTLConfig(geo.PageSize)
	fcfg.Parallelism = 2
	fcfg.MapCacheBytes = 1 << 30
	f, err := ftl.New(e, arr, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := testConfig()
	dcfg.DeallocatorPeriod = 0 // keep the event queue finite unless opted in
	if mut != nil {
		mut(&dcfg)
	}
	d, err := New(e, f, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func TestConfigValidation(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
	bad := testConfig()
	bad.QueueDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("QueueDepth 0 accepted")
	}
	bad = testConfig()
	bad.PCIeMBps = 0
	if err := bad.Validate(); err == nil {
		t.Error("PCIeMBps 0 accepted")
	}
	bad = testConfig()
	bad.CacheBytes = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative CacheBytes accepted")
	}
	e := sim.NewEngine()
	if _, err := New(e, nil, bad); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestWriteThenReadHitsCache(t *testing.T) {
	e, d := testDevice(t, nil)
	wf := d.Write(0, 2048, AreaData)
	e.Run()
	if !wf.Done() {
		t.Fatal("write never completed")
	}
	preReads := d.FTL().Array().Stats().Reads
	rf := d.Read(0, 2048)
	e.Run()
	if !rf.Done() {
		t.Fatal("read never completed")
	}
	if d.FTL().Array().Stats().Reads != preReads {
		t.Error("cached read went to flash")
	}
	if d.Stats().CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestReadMissGoesToFlash(t *testing.T) {
	e, d := testDevice(t, func(c *Config) { c.CacheBytes = 0 })
	d.Write(0, 2048, AreaData)
	e.Run()
	pre := d.FTL().Array().Stats().Reads
	d.Read(0, 2048)
	e.Run()
	if d.FTL().Array().Stats().Reads == pre {
		t.Error("uncached read did not reach flash")
	}
}

func TestCacheEviction(t *testing.T) {
	// Cache of 4 units (2 KB): writing 8 units evicts the first 4.
	e, d := testDevice(t, func(c *Config) { c.CacheBytes = 4 * 512 })
	d.Write(0, 4096, AreaData)
	e.Run()
	pre := d.FTL().Array().Stats().Reads
	d.Read(0, 512) // unit 0 was evicted
	e.Run()
	if d.FTL().Array().Stats().Reads == pre {
		t.Error("evicted unit served from cache")
	}
	d.Read(2048+1024, 512) // unit 6 is still resident
	preHits := d.Stats().CacheHits
	e.Run()
	if d.Stats().CacheHits == preHits {
		t.Error("resident unit missed the cache")
	}
}

func TestQueueDepthLimitsConcurrency(t *testing.T) {
	e, d := testDevice(t, func(c *Config) { c.QueueDepth = 1 })
	f1 := d.Write(0, 2048, AreaData)
	f2 := d.Write(4096, 2048, AreaData)
	var t1, t2 sim.VTime
	f1.OnComplete(func() { t1 = e.Now() })
	f2.OnComplete(func() { t2 = e.Now() })
	e.Run()
	if t2 <= t1 {
		t.Errorf("second command did not queue behind first: %v vs %v", t1, t2)
	}
	if d.Stats().QueueWait.Mean() == 0 {
		t.Error("queue wait not recorded")
	}
}

func TestFlushCommitsJournalTail(t *testing.T) {
	e, d := testDevice(t, nil)
	wf := d.Write(0, 512, AreaJournal) // partial page: staged only
	e.Run()
	if !wf.Done() {
		t.Fatal("staged journal write never completed")
	}
	if d.FTL().Array().Stats().Programs != 0 {
		t.Fatal("partial journal page programmed before flush")
	}
	ff := d.Flush(AreaJournal)
	e.Run()
	if !ff.Done() {
		t.Fatal("flush never completed")
	}
	if d.FTL().Array().Stats().Programs != 1 {
		t.Fatalf("Programs = %d after flush, want 1", d.FTL().Array().Stats().Programs)
	}
}

func TestDeallocateTrims(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Write(0, 2048, AreaJournal)
	e.Run()
	df := d.Deallocate(0, 2048)
	e.Run()
	if !df.Done() {
		t.Fatal("deallocate never completed")
	}
	if d.FTL().Stats().TrimmedUnits != 4 {
		t.Errorf("TrimmedUnits = %d, want 4", d.FTL().Stats().TrimmedUnits)
	}
	// Cache entries for the range must be gone.
	pre := d.FTL().Array().Stats().Reads
	d.Read(0, 2048)
	e.Run()
	if d.FTL().Array().Stats().Reads != pre {
		// unmapped read costs no flash but must not be a cache hit
		if d.Stats().CacheHits > 0 {
			t.Error("deallocated range still cached")
		}
	}
}

func TestCoWCopiesInDevice(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Write(0, 2048, AreaJournal)
	e.Run()
	preHostBytes := d.Stats().HostWriteBytes
	cf := d.CoW(0, 65536, 2048)
	e.Run()
	if !cf.Done() {
		t.Fatal("CoW never completed")
	}
	if d.Stats().HostWriteBytes != preHostBytes {
		t.Error("CoW moved data across the host link")
	}
	if d.FTL().Stats().ProgramsByTag[ftl.TagCheckpoint] == 0 {
		t.Error("CoW did not program checkpoint-tagged pages")
	}
	if d.Stats().CoWPairs != 1 {
		t.Errorf("CoWPairs = %d, want 1", d.Stats().CoWPairs)
	}
}

func TestMultiCoWBatches(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Write(0, 8192, AreaJournal)
	e.Run()
	pairs := []CoWPair{
		{Src: 0, Dst: 65536, Len: 2048},
		{Src: 2048, Dst: 65536 + 2048, Len: 2048},
		{Src: 4096, Dst: 65536 + 4096, Len: 2048},
	}
	pre := d.Stats().Commands
	mf := d.MultiCoW(pairs)
	e.Run()
	if !mf.Done() {
		t.Fatal("MultiCoW never completed")
	}
	if d.Stats().Commands-pre != 1 {
		t.Errorf("MultiCoW used %d commands, want 1", d.Stats().Commands-pre)
	}
	if d.Stats().CoWPairs != 3 {
		t.Errorf("CoWPairs = %d, want 3", d.Stats().CoWPairs)
	}
}

func TestCheckpointRequestRemapsAligned(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Write(0, 4096, AreaJournal)
	e.Run()
	prePrograms := d.FTL().Array().Stats().Programs
	pre := d.FTL().Stats()
	cf := d.CheckpointRequest([]RemapEntry{
		{Src: 0, Dst: 65536, Len: 2048},
		{Src: 2048, Dst: 65536 + 2048, Len: 2048},
		{Src: 0, Dst: 131072, Len: 2048, Old: true}, // superseded: skipped
	})
	e.Run()
	if !cf.Done() {
		t.Fatal("checkpoint request never completed")
	}
	post := d.FTL().Stats()
	if remaps, rmws := post.Remaps-pre.Remaps, post.RemapRMWs-pre.RemapRMWs; remaps != 8 || rmws != 0 {
		t.Errorf("%d units remapped, %d by RMW; want 8 remapped units", remaps, rmws)
	}
	if got := d.FTL().Array().Stats().Programs - prePrograms; got != 0 {
		t.Errorf("aligned checkpoint programmed %d pages, want 0", got)
	}
	if d.Stats().RemapEntries != 2 {
		t.Errorf("RemapEntries = %d, want 2 (OLD skipped)", d.Stats().RemapEntries)
	}
}

func TestCheckpointRequestUnalignedRMWs(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Write(0, 4096, AreaJournal)
	e.Run()
	pre := d.FTL().Stats()
	cf := d.CheckpointRequest([]RemapEntry{
		{Src: 100, Dst: 65536, Len: 1024}, // unaligned source
	})
	e.Run()
	if !cf.Done() {
		t.Fatal("checkpoint request never completed")
	}
	if d.FTL().Stats().RemapRMWs == pre.RemapRMWs {
		t.Error("unaligned entry did not RMW")
	}
	// RMW residue stages until the post-checkpoint flush barrier.
	d.Flush(AreaData)
	e.Run()
	if d.FTL().Stats().ProgramsByTag[ftl.TagCheckpoint] == 0 {
		t.Error("RMW did not program checkpoint pages after flush")
	}
}

func TestDeallocatorBackgroundGC(t *testing.T) {
	e, d := testDevice(t, func(c *Config) {
		c.DeallocatorPeriod = 5 * sim.Millisecond
		c.BackgroundGCBatch = 4
	})
	// Create fully dead journal blocks, then let the device idle.
	for i := 0; i < 4; i++ {
		d.Write(int64(i)*32768, 32768, AreaJournal)
		e.RunUntil(e.Now() + 200*sim.Millisecond)
	}
	d.Deallocate(0, 4*32768)
	e.RunUntil(e.Now() + 100*sim.Millisecond)
	if d.Stats().BackgroundGCs == 0 {
		t.Error("deallocator never ran background GC in idle window")
	}
}

func TestReadCompletesAfterLinkTransfer(t *testing.T) {
	e, d := testDevice(t, func(c *Config) { c.CacheBytes = 0 })
	d.Write(0, 2048, AreaData)
	e.Run()
	start := e.Now()
	rf := d.Read(0, 2048)
	var done sim.VTime
	rf.OnComplete(func() { done = e.Now() })
	e.Run()
	// Must cost at least the flash read (cmd 1µs + tR 50µs + channel xfer).
	if done-start < 51*sim.Microsecond {
		t.Errorf("read latency %v implausibly small", done-start)
	}
}

func TestAreaMapping(t *testing.T) {
	if AreaJournal.stream() != ftl.StreamJournal || AreaJournal.tag() != ftl.TagHostJournal {
		t.Error("journal area mapping wrong")
	}
	if AreaData.stream() != ftl.StreamData || AreaData.tag() != ftl.TagHostData {
		t.Error("data area mapping wrong")
	}
}

func TestHostByteAccounting(t *testing.T) {
	e, d := testDevice(t, nil)
	d.Write(0, 4096, AreaData)
	d.Read(0, 1024)
	e.Run()
	if d.Stats().HostWriteBytes != 4096 {
		t.Errorf("HostWriteBytes = %d", d.Stats().HostWriteBytes)
	}
	if d.Stats().HostReadBytes != 1024 {
		t.Errorf("HostReadBytes = %d", d.Stats().HostReadBytes)
	}
}
