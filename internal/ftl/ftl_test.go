package ftl

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// smallGeo is a tiny device: 1 die, 16 blocks × 8 pages × 2 KB pages,
// 512 B units → 4 slots/page, 32 slots/block, 512 slots total.
func smallGeo() nand.Geometry {
	return nand.Geometry{
		Channels: 1, PackagesPerChannel: 1, DiesPerPackage: 1, PlanesPerDie: 1,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 2048,
	}
}

func fastTim() nand.Timing {
	return nand.Timing{
		ReadPage:    50 * sim.Microsecond,
		ProgramPage: 500 * sim.Microsecond,
		EraseBlock:  3 * sim.Millisecond,
		CmdOverhead: 1 * sim.Microsecond,
		ChannelMBps: 400,
	}
}

// smallCfg is a valid config for smallGeo: 512 B units, one metadata page
// of dirty entries per flush.
func smallCfg() Config {
	c := DefaultConfig()
	c.UnitSize = 512
	c.MetaFlushEntries = smallGeo().PageSize / 8
	c.OverProvision = 0.3
	c.GCLowWater = 2
	c.GCHighWater = 4
	c.Parallelism = 1
	c.MapCacheBytes = 1 << 30 // disable miss model unless a test opts in
	return c
}

func newSmall(t *testing.T, cfg Config) (*sim.Engine, *FTL) {
	t.Helper()
	e := sim.NewEngine()
	arr, err := nand.New(e, smallGeo(), fastTim())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(e, arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, f
}

// checkInvariants verifies the core mapping invariants:
//  1. every mapped lun points at a slot that references it back,
//  2. refcnt equals 1 (primary) + overflow count,
//  3. per-block valid counts equal the number of live slots.
func checkInvariants(t *testing.T, f *FTL) {
	t.Helper()
	refs := make(map[int64]int)
	for lun, l2p := range f.l2p.all() {
		sid := int64(l2p)
		if sid < 0 {
			continue
		}
		refs[sid]++
		if f.refcnt.at(sid) == 0 {
			t.Fatalf("lun %d maps to dead slot %d", lun, sid)
		}
		found := false
		for _, l := range f.lunsOf(sid) {
			if l == int64(lun) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("slot %d reverse map misses lun %d", sid, lun)
		}
	}
	valid := make([]int32, f.totalBlocks)
	for sid, rc := range f.refcnt.all() {
		rc := int(rc)
		if rc == 0 {
			continue
		}
		if refs[int64(sid)] != rc {
			t.Fatalf("slot %d refcnt %d but %d luns reference it", sid, rc, refs[int64(sid)])
		}
		want := 1 + len(f.revOverflow.get(int64(sid)))
		if rc != want {
			t.Fatalf("slot %d refcnt %d but primary+overflow = %d", sid, rc, want)
		}
		valid[f.slotBlock(int64(sid))]++
	}
	for b := range valid {
		if valid[b] != f.validCount[b] {
			t.Fatalf("block %d validCount %d, actual %d", b, f.validCount[b], valid[b])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg()
	if err := good.Validate(4096); err != nil {
		t.Fatalf("small config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.UnitSize = 0 },
		func(c *Config) { c.UnitSize = 513 },
		func(c *Config) { c.OverProvision = 1.5 },
		func(c *Config) { c.GCLowWater = 0 },
		func(c *Config) { c.GCHighWater = c.GCLowWater },
		func(c *Config) { c.Parallelism = 0 },
		func(c *Config) { c.MetaFlushEntries = 0 },
		func(c *Config) { c.FlashMap, c.CMTEntries = true, 0 },
	}
	for i, mut := range cases {
		c := smallCfg()
		mut(&c)
		if err := c.Validate(4096); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestCheckAddressable pins the 32-bit bound at its edge: MaxAddresses
// slots and logical units pass, one more of either fails, and factors whose
// product wraps int64 fail instead of wrapping. It only does arithmetic; no
// geometry here is ever built.
func TestCheckAddressable(t *testing.T) {
	// One die with one plane; one page per block, so blocks count pages.
	geo := func(blocks, pageSize int) nand.Geometry {
		return nand.Geometry{Channels: 1, PackagesPerChannel: 1, DiesPerPackage: 1, PlanesPerDie: 1,
			BlocksPerPlane: blocks, PagesPerBlock: 1, PageSize: pageSize}
	}
	huge := geo(1<<62, 512)
	huge.PagesPerBlock = 1 << 62
	for _, tc := range []struct {
		name string
		geo  nand.Geometry
		unit int
		op   float64
		want string // "" accepts
	}{
		{"at the bound", geo(MaxAddresses, 512), 512, 0, ""},
		{"one slot past", geo(1<<30, 1024), 512, 0.12, "slots"},
		{"one unit past", geo(1<<30, 1024), 512, 0, "logical units"},
		// Only an over-provisioning Validate refuses gives more logical
		// units than slots.
		{"units past, slots within", geo(1<<30, 512), 512, -0.5, "logical units"},
		{"product wraps int64", huge, 512, 0.12, "slots"},
		// No slot fits the page: Validate refuses the unit, not the bound.
		{"unit past the page", geo(1<<30, 1024), 2048, 0.12, ""},
	} {
		err := CheckAddressable(tc.geo, tc.unit, tc.op)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error naming the %s", tc.name, err, tc.want)
		}
	}
}

func TestLogicalCapacity(t *testing.T) {
	_, f := newSmall(t, smallCfg())
	phys := smallGeo().TotalBytes()
	if f.LogicalBytes() >= phys {
		t.Error("logical capacity not reduced by over-provisioning")
	}
	if f.LogicalBytes()%int64(f.UnitSize()) != 0 {
		t.Error("logical capacity not unit-aligned")
	}
	if f.MappingTableBytes() != f.LogicalBytes()/512*8 {
		t.Errorf("MappingTableBytes = %d", f.MappingTableBytes())
	}
}

func TestWriteFullPageProgramsOnce(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	// 4 slots per page: a 2048-byte write fills exactly one page.
	fut := f.Write(0, 2048, TagHostData, StreamData)
	done := false
	fut.OnComplete(func() { done = true })
	e.Run()
	if !done {
		t.Fatal("write future never completed")
	}
	if got := f.Array().Stats().Programs; got != 1 {
		t.Errorf("Programs = %d, want 1", got)
	}
	if f.Stats().ProgramsByTag[TagHostData] != 1 {
		t.Errorf("tagged programs = %v", f.Stats().ProgramsByTag)
	}
	checkInvariants(t, f)
}

func TestWritePartialPageNeedsSync(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	fut := f.Write(0, 512, TagHostJournal, StreamJournal)
	e.Run()
	// Staged-write semantics: the host write completes once buffered...
	if !fut.Done() {
		t.Fatal("staged write never completed")
	}
	// ...but nothing is programmed until the page fills or a Sync lands.
	if f.Array().Stats().Programs != 0 {
		t.Fatal("partial page programmed without sync")
	}
	sf := f.Sync(StreamJournal, TagHostJournal)
	e.Run()
	if !sf.Done() {
		t.Fatal("sync never completed")
	}
	if f.Array().Stats().Programs != 1 {
		t.Fatalf("Programs = %d after sync, want 1", f.Array().Stats().Programs)
	}
	// 3 of 4 slots in the page were wasted.
	if f.Stats().DeadPaddingSlots != 3 {
		t.Errorf("DeadPaddingSlots = %d, want 3", f.Stats().DeadPaddingSlots)
	}
	checkInvariants(t, f)
}

func TestSyncIdempotentWhenEmpty(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	sf := f.Sync(StreamJournal, TagHostJournal)
	if !sf.Done() {
		t.Error("sync of empty stream should complete immediately")
	}
	e.Run()
	if f.Array().Stats().Programs != 0 {
		t.Error("empty sync programmed a page")
	}
}

func TestOverwriteInvalidatesOldSlot(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	f.Write(0, 2048, TagHostData, StreamData)
	e.Run()
	f.Write(0, 2048, TagHostData, StreamData)
	e.Run()
	checkInvariants(t, f)
	// First page's 4 slots are now invalid.
	totalValid := int32(0)
	for _, v := range f.validCount {
		totalValid += v
	}
	if totalValid != 4 {
		t.Errorf("valid slots = %d, want 4", totalValid)
	}
}

func TestRMWOnPartialOverwrite(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	f.Write(0, 2048, TagHostData, StreamData) // map units 0..3
	e.Run()
	pre := f.Array().Stats().Reads
	// 100 bytes at offset 0 partially covers unit 0 → RMW read.
	f.Write(0, 100, TagHostData, StreamData)
	f.Sync(StreamData, TagHostData)
	e.Run()
	if f.Stats().HostRMWReads != 1 {
		t.Errorf("HostRMWReads = %d, want 1", f.Stats().HostRMWReads)
	}
	if got := f.Array().Stats().Reads - pre; got != 1 {
		t.Errorf("flash reads = %d, want 1", got)
	}
	checkInvariants(t, f)
}

func TestNoRMWOnUnmappedPartialWrite(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	f.Write(0, 100, TagHostData, StreamData) // unit 0 never mapped
	f.Sync(StreamData, TagHostData)
	e.Run()
	if f.Stats().HostRMWReads != 0 {
		t.Errorf("HostRMWReads = %d, want 0", f.Stats().HostRMWReads)
	}
}

func TestReadCoalescesPerPage(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	f.Write(0, 2048, TagHostData, StreamData) // 4 units on one page
	e.Run()
	pre := f.Array().Stats().Reads
	fut := f.Read(0, 2048)
	e.Run()
	if !fut.Done() {
		t.Fatal("read never completed")
	}
	if got := f.Array().Stats().Reads - pre; got != 1 {
		t.Errorf("flash reads = %d, want 1 (coalesced)", got)
	}
}

func TestReadUnmappedCompletesInstantly(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	fut := f.Read(4096, 1024)
	if !fut.Done() {
		t.Error("read of unmapped space should complete synchronously")
	}
	e.Run()
	if f.Array().Stats().Reads != 0 {
		t.Error("unmapped read touched flash")
	}
}

func TestTrim(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	f.Write(0, 2048, TagHostData, StreamData)
	e.Run()
	f.Trim(0, 2048)
	if f.Stats().TrimmedUnits != 4 {
		t.Errorf("TrimmedUnits = %d, want 4", f.Stats().TrimmedUnits)
	}
	fut := f.Read(0, 2048)
	if !fut.Done() {
		t.Error("read after trim should find nothing mapped")
	}
	checkInvariants(t, f)
}

func TestTrimUnalignedPanics(t *testing.T) {
	_, f := newSmall(t, smallCfg())
	defer func() {
		if recover() == nil {
			t.Error("unaligned trim did not panic")
		}
	}()
	f.Trim(100, 512)
}

func TestRemapAligned(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	// journal at offset 0, data area at 64 KB
	const dataOff = 65536
	f.Write(0, 2048, TagHostJournal, StreamJournal)
	e.Run()
	prePrograms := f.Array().Stats().Programs
	res, fut := f.Remap(0, dataOff, 2048)
	e.Run()
	if !fut.Done() {
		t.Fatal("remap future never completed")
	}
	if res.Remapped != 4 || res.RMWs != 0 || res.Skipped != 0 {
		t.Errorf("RemapResult = %+v, want 4 pure remaps", res)
	}
	if got := f.Array().Stats().Programs - prePrograms; got != 0 {
		t.Errorf("aligned remap programmed %d pages, want 0", got)
	}
	checkInvariants(t, f)

	// Source and destination share physical slots until the journal trim.
	sid := int64(f.l2p.at(0))
	if sid < 0 || int64(f.l2p.at(dataOff/512)) != sid {
		t.Fatal("src and dst do not share a slot")
	}
	if f.refcnt.at(sid) != 2 {
		t.Errorf("shared slot refcnt = %d, want 2", f.refcnt.at(sid))
	}
	f.Trim(0, 2048)
	if f.refcnt.at(sid) != 1 {
		t.Errorf("after trim refcnt = %d, want 1", f.refcnt.at(sid))
	}
	if int64(f.l2p.at(dataOff/512)) != sid {
		t.Error("trim of source broke destination mapping")
	}
	checkInvariants(t, f)
}

func TestRemapUnalignedDoesRMW(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	const dataOff = 65536
	f.Write(0, 2048, TagHostJournal, StreamJournal)
	f.Write(dataOff, 2048, TagHostData, StreamData) // old data to merge with
	e.Run()
	pre := f.Array().Stats()
	// Source offset 100 is not unit-aligned: every unit must RMW.
	res, fut := f.Remap(100, dataOff, 1024)
	e.Run()
	if !fut.Done() {
		t.Fatal("remap future never completed")
	}
	if res.Remapped != 0 || res.RMWs != 2 {
		t.Errorf("RemapResult = %+v, want 2 RMWs", res)
	}
	post := f.Array().Stats()
	if post.Reads == pre.Reads {
		t.Error("unaligned remap did no flash reads")
	}
	// The merged slots stage until the checkpoint's durability barrier.
	f.Sync(StreamData, TagCheckpoint)
	e.Run()
	if f.Array().Stats().Programs == pre.Programs {
		t.Error("unaligned remap did no programs after sync")
	}
	if f.Stats().ProgramsByTag[TagCheckpoint] == 0 {
		t.Error("RMW programs not tagged checkpoint")
	}
	checkInvariants(t, f)
}

func TestRemapSkipsUnmappedSource(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	res, fut := f.Remap(0, 65536, 1024)
	e.Run()
	if !fut.Done() || res.Skipped != 2 || res.Remapped != 0 {
		t.Errorf("RemapResult = %+v, want 2 skipped", res)
	}
}

func TestRemapShortTailRMW(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	f.Write(0, 1024, TagHostJournal, StreamJournal)
	f.Sync(StreamJournal, TagHostJournal)
	e.Run()
	// Aligned start, but length 600: one pure remap + one short-tail RMW.
	res, _ := f.Remap(0, 65536, 600)
	e.Run()
	if res.Remapped != 1 || res.RMWs != 1 {
		t.Errorf("RemapResult = %+v, want 1 remap + 1 RMW", res)
	}
	checkInvariants(t, f)
}

func TestCopyReadsAndWrites(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	f.Write(0, 2048, TagHostJournal, StreamJournal)
	e.Run()
	pre := f.Array().Stats()
	fut := f.Copy(0, 65536, 2048, TagCheckpoint)
	e.Run()
	if !fut.Done() {
		t.Fatal("copy never completed")
	}
	post := f.Array().Stats()
	if post.Reads-pre.Reads != 1 {
		t.Errorf("copy reads = %d, want 1 (one source page)", post.Reads-pre.Reads)
	}
	if post.Programs-pre.Programs != 1 {
		t.Errorf("copy programs = %d, want 1", post.Programs-pre.Programs)
	}
	if f.Stats().RedundantWrites() == 0 {
		t.Error("copy not counted as redundant write")
	}
	checkInvariants(t, f)
}

func TestGCReclaimsInvalidBlocks(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	// Keep overwriting the same 8 KB region; old slots become invalid and
	// the device must GC to keep free blocks available.
	for i := 0; i < 100; i++ {
		f.Write(0, 8192, TagHostData, StreamData)
		e.Run()
	}
	st := f.Stats()
	if st.GCInvocations+st.DeadReclaims == 0 {
		t.Fatal("GC never ran despite heavy overwrite traffic")
	}
	if f.FreeBlocks() < 2 {
		t.Errorf("free blocks = %d, device nearly full after GC", f.FreeBlocks())
	}
	checkInvariants(t, f)
	// The live region must still be fully mapped.
	for lun := int64(0); lun < 16; lun++ {
		if f.l2p.at(lun) < 0 {
			t.Fatalf("lun %d lost its mapping across GC", lun)
		}
	}
}

func TestGCPreservesSharedMappings(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	const dataOff = 65536
	f.Write(0, 2048, TagHostJournal, StreamJournal)
	e.Run()
	f.Remap(0, dataOff, 2048)
	e.Run()
	// Fill the device to force GC over the shared block.
	for i := 0; i < 120; i++ {
		f.Write(8192, 8192, TagHostData, StreamData)
		e.Run()
	}
	checkInvariants(t, f)
	// Shared pair must still point at a common slot.
	if f.l2p.at(0) < 0 || f.l2p.at(0) != f.l2p.at(dataOff/512) {
		t.Error("GC broke the shared journal/data mapping")
	}
}

func TestBackgroundGC(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	// Write a journal region then trim it: blocks become fully invalid.
	for i := 0; i < 4; i++ {
		f.Write(int64(i)*16384, 16384, TagHostJournal, StreamJournal)
		e.Run()
	}
	f.Trim(0, 4*16384)
	if !f.HasCheapVictim() {
		t.Fatal("no reclaimable block after trimming the journal")
	}
	free := f.FreeBlocks()
	n := f.BackgroundGC(2)
	e.Run()
	if n == 0 {
		t.Fatal("background GC collected nothing")
	}
	if f.FreeBlocks() <= free {
		t.Error("background GC did not free blocks")
	}
	// Fully invalid victims migrate no data.
	if f.Stats().GCMigratedSlot != 0 {
		t.Errorf("background GC migrated %d slots from dead blocks", f.Stats().GCMigratedSlot)
	}
	checkInvariants(t, f)
}

func TestMetaFlushes(t *testing.T) {
	cfg := smallCfg()
	cfg.MetaFlushEntries = 16
	e, f := newSmall(t, cfg)
	for i := 0; i < 10; i++ {
		f.Write(int64(i)*2048, 2048, TagHostData, StreamData)
		e.Run()
	}
	if f.Stats().MetaFlushes == 0 {
		t.Error("no metadata flushes despite many mapping updates")
	}
	if f.Stats().ProgramsByTag[TagMeta] != f.Stats().MetaFlushes {
		t.Errorf("meta programs %d != flushes %d",
			f.Stats().ProgramsByTag[TagMeta], f.Stats().MetaFlushes)
	}
}

func TestMapMissModel(t *testing.T) {
	cfg := smallCfg()
	cfg.MapCacheBytes = 1 // nothing fits → ~every lookup misses
	e, f := newSmall(t, cfg)
	f.Write(0, 2048, TagHostData, StreamData)
	e.Run()
	if f.Stats().MapMisses == 0 {
		t.Error("tiny map cache produced no misses")
	}
	// A miss must delay the operation's completion beyond the no-miss
	// case (staged writes complete instantly without misses).
	e2, f2 := newSmall(t, smallCfg())
	var base, slow sim.VTime
	f2.Write(0, 2048, TagHostData, StreamData).OnComplete(func() { base = e2.Now() })
	e2.Run()
	e3, f3 := newSmall(t, cfg)
	f3.Write(0, 2048, TagHostData, StreamData).OnComplete(func() { slow = e3.Now() })
	e3.Run()
	if slow <= base {
		t.Errorf("map misses added no latency: %v vs %v", slow, base)
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	_, f := newSmall(t, smallCfg())
	for _, fn := range []func(){
		func() { f.Write(f.LogicalBytes(), 512, TagHostData, StreamData) },
		func() { f.Read(-1, 10) },
		func() { f.Trim(f.LogicalBytes()-512, 1024) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestWriteZeroBytes(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	if !f.Write(0, 0, TagHostData, StreamData).Done() {
		t.Error("zero-byte write should complete immediately")
	}
	if !f.Copy(0, 1024, 0, TagCheckpoint).Done() {
		t.Error("zero-byte copy should complete immediately")
	}
	e.Run()
}

func TestRandomTrafficInvariants(t *testing.T) {
	// Property: after arbitrary interleaved writes/trims/remaps the
	// mapping invariants hold and GC never loses a mapping. A remap onto
	// its own source leaves the units as they are.
	err := quick.Check(func(ops []uint16) bool {
		e, f := newSmall(t, smallCfg())
		units := f.LogicalBytes() / 512
		for _, op := range ops {
			lun := int64(op) % (units - 8)
			switch op % 5 {
			case 0, 1:
				f.Write(lun*512, 512*int64(1+op%4), TagHostData, StreamData)
			case 2:
				f.Trim(lun*512, 512)
			case 3:
				dst := (lun + 4) % (units - 4)
				f.Remap(lun*512, dst*512, 512)
			case 4:
				before := entries(&f.l2p)[lun : lun+4]
				if res, _ := f.Remap(lun*512, lun*512, 512*int64(1+op%4)); res.Remapped != 0 {
					t.Errorf("Remap(x, x, n) remapped %d units", res.Remapped)
				}
				if after := entries(&f.l2p)[lun : lun+4]; !slices.Equal(after, before) {
					t.Errorf("Remap(x, x, n) moved unit %d's mapping: %v, was %v", lun, after, before)
				}
			}
			e.Run()
		}
		f.Sync(StreamData, TagHostData)
		e.Run()
		checkInvariants(t, f)
		return !t.Failed()
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestTagString(t *testing.T) {
	want := map[Tag]string{
		TagHostJournal: "host-journal", TagHostData: "host-data",
		TagCheckpoint: "checkpoint", TagGC: "gc", TagMeta: "meta",
	}
	for tag, s := range want {
		if tag.String() != s {
			t.Errorf("Tag(%d).String() = %q, want %q", tag, tag.String(), s)
		}
	}
	if Tag(99).String() == "" {
		t.Error("unknown tag should still render")
	}
}

func TestRedundantWritesMetric(t *testing.T) {
	var s Stats
	s.ProgramsByTag[TagCheckpoint] = 10
	s.ProgramsByTag[TagGC] = 5
	s.ProgramsByTag[TagHostData] = 100
	if s.RedundantWrites() != 15 {
		t.Errorf("RedundantWrites = %d, want 15", s.RedundantWrites())
	}
}
