package checkin_test

import (
	"runtime"
	"testing"

	"github.com/checkin-kv/checkin"
)

// allocs is what one run allocated on the heap, and of that the FTL
// address-table chunks the run made private (one object each).
type allocs struct {
	objects, bytes     uint64
	chunks, chunkBytes uint64
}

// runAllocs runs spec on db and returns what the run allocated.
func runAllocs(t *testing.T, db *checkin.DB, spec checkin.RunSpec) allocs {
	t.Helper()
	var before, after runtime.MemStats
	chunks := db.Device().FTL().TableChunks()
	runtime.ReadMemStats(&before)
	if _, err := db.Run(spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	made := db.Device().FTL().TableChunks()
	return allocs{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc,
		uint64(made.Owned - chunks.Owned), uint64(made.OwnedBytes - chunks.OwnedBytes)}
}

// Fork-parity slack: the runtime's own allocations move a run's count by
// up to about twenty objects and a few kilobytes between identical runs
// (under the race detector; a few objects without it). A dropped reserve
// costs more: a dropped slot-table free list or JMT entry reuse one object
// per reused slice or entry, 190 to 400 per run here.
const (
	forkSlackObjects = 64
	forkSlackBytes   = 32 << 10
)

// TestForkAllocParity: a fork allocates what the stack it was cloned from
// would have, plus one object per FTL address-table chunk it makes private.
// Every other table keeps its capacity in a clone — the slot tables' pools
// and free lists, the JMTs' reusable entries, the kernel's queues, the
// command-record pool — so a run on a fork allocates no more, in objects
// or bytes, than the same run on the template, except that each chunk the
// fork first writes costs exactly one chunk-sized object. A stack cloned
// after a run shares its chunks too, so its own run copies the chunks it
// writes as well; that much of its count is chunk copies, not the run's
// own allocation. Two templates per
// stack, on journal/dram, journal/dftl (with a CMT small enough to miss)
// and LSM: the post-Load snapshot, whose fork runs against a stack that
// loaded itself, and a stack stopped after a run, cloned through Fork's
// entry (CloneDB), which then runs next to its template. The second holds
// the journal, slot tables and spare JMT a rest point never does. The DFTL
// run-node reserve does not show here: these stacks' run pools stay within
// the allocator's rounding of the LRU arrays, so TestForkCopiesEveryField
// checks every table's capacity instead.
func TestForkAllocParity(t *testing.T) {
	tmpls := copyTemplates(t)
	// A CMT of a fifth of the map, so misses page-fill runs into the pool
	// past the rest point's nodes.
	small := tmpls["journal-dftl"]
	small.CMTEntries = 4096
	tmpls["journal-dftl"] = small
	spec := snapTestSpec()
	again := spec
	again.Mix = checkin.WorkloadF
	check := func(t *testing.T, phase string, direct, fork allocs) {
		t.Helper()
		t.Logf("%s: direct %d objects %d B (%d chunks copied, %d B), fork %d objects %d B (%d chunks copied, %d B)",
			phase, direct.objects, direct.bytes, direct.chunks, direct.chunkBytes,
			fork.objects, fork.bytes, fork.chunks, fork.chunkBytes)
		if fork.chunks == 0 {
			t.Errorf("%s: the fork's run made no table chunk private", phase)
		}
		// Each side's own allocation, chunk copies taken out, may differ by
		// the slack; the fork may add exactly its chunk copies.
		if fork.objects > direct.objects-direct.chunks+fork.chunks+forkSlackObjects ||
			fork.bytes > direct.bytes-direct.chunkBytes+fork.chunkBytes+forkSlackBytes {
			t.Errorf("%s: a fork's run allocates %d objects (%d B) with %d chunk copies (%d B), the direct stack's %d (%d B) with %d (%d B)",
				phase, fork.objects, fork.bytes, fork.chunks, fork.chunkBytes,
				direct.objects, direct.bytes, direct.chunks, direct.chunkBytes)
		}
	}
	for _, name := range []string{"journal-dram", "journal-dftl", "lsm"} {
		cfg := tmpls[name]
		t.Run(name, func(t *testing.T) {
			direct, err := checkin.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			direct.Load()
			fork, err := captureSnapshot(t, cfg).Fork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f := runAllocs(t, fork, spec)
			check(t, "post-Load fork", runAllocs(t, direct, spec), f)

			direct.Device().PauseDeallocator()
			direct.Sim().Run()
			clone, err := checkin.CloneDB(direct)
			if err != nil {
				t.Fatal(err)
			}
			direct.Device().ResumeDeallocator()
			f = runAllocs(t, clone, again)
			check(t, "after-run clone", runAllocs(t, direct, again), f)
		})
	}
}
