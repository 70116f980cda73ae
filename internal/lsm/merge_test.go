package lsm

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// foldRuns is the reference merge: fold every input into a map, keeping an
// entry only when a later input holds the key at a strictly higher version
// (so the earliest input wins a version tie), then sort by key.
func foldRuns(inputs []*run) []runEntry {
	newest := make(map[int64]runEntry)
	for _, r := range inputs {
		for i, k := range r.keys {
			if cur, ok := newest[k]; !ok || r.vers[i] > cur.version {
				newest[k] = runEntry{key: k, version: r.vers[i], size: int(r.sizes[i])}
			}
		}
	}
	out := make([]runEntry, 0, len(newest))
	for _, e := range newest {
		out = append(out, e)
	}
	sortEntries(out)
	return out
}

// testRun builds a run holding keys (distinct, any order) at version ver.
// Each entry's size encodes the run id, so a test can tell which input
// supplied a merged entry when versions tie.
func testRun(id uint64, ver int64, keys ...int64) *run {
	entries := make([]runEntry, len(keys))
	for i, k := range keys {
		entries[i] = runEntry{key: k, version: ver, size: int(id)*1000 + int(k)%1000 + 1}
	}
	sortEntries(entries)
	r, _ := planRun(id, 0, entries, 0)
	return r
}

// baseShape returns a count of small runs, n random keys each, followed by
// a base run of every key in [0, baseKeys): the input order of a major
// compaction, oldest small run first.
func baseShape(rng *rand.Rand, count, n, baseKeys int) []*run {
	var inputs []*run
	for i := range count {
		keys := rng.Perm(baseKeys)[:n]
		ks := make([]int64, n)
		for j, k := range keys {
			ks[j] = int64(k)
		}
		inputs = append(inputs, testRun(uint64(i+1), int64(i+2), ks...))
	}
	all := make([]int64, baseKeys)
	for k := range all {
		all[k] = int64(k)
	}
	return append(inputs, testRun(uint64(count+1), 1, all...))
}

// runsFromBytes decodes fuzz input into up to 8 runs over keys [0, 64) at
// versions 1–4: small ranges, so keys overlap and versions tie often.
func runsFromBytes(data []byte) []*run {
	var inputs []*run
	for len(data) > 0 && len(inputs) < 8 {
		n := int(data[0] % 32)
		data = data[1:]
		id := uint64(len(inputs) + 1)
		entries := make([]runEntry, 0, n)
		seen := make(map[int64]bool, n)
		for ; n > 0 && len(data) >= 2; n-- {
			k, v := int64(data[0]%64), int64(data[1]%4)+1
			data = data[2:]
			if !seen[k] {
				seen[k] = true
				entries = append(entries, runEntry{key: k, version: v, size: int(id)*1000 + int(k) + 1})
			}
		}
		sortEntries(entries)
		r, _ := planRun(id, 0, entries, 0)
		inputs = append(inputs, r)
	}
	return inputs
}

func checkMerge(t *testing.T, inputs []*run) {
	t.Helper()
	// The fold's length is the inputs' distinct key count: the tightest
	// bound a caller may pass.
	want := foldRuns(inputs)
	got := mergeRuns(nil, inputs, int64(len(want)))
	if !slices.Equal(got, want) {
		t.Fatalf("mergeRuns differs from the fold over %d inputs:\n got  %v\n want %v", len(inputs), got, want)
	}
}

func TestMergeRunsMatchesFold(t *testing.T) {
	cases := map[string][]*run{
		"overlapping keys": {
			testRun(1, 2, 1, 3, 5, 7),
			testRun(2, 3, 3, 4, 5),
			testRun(3, 4, 5, 6, 7),
		},
		"equal versions in different inputs": {
			testRun(1, 2, 1, 2, 3),
			testRun(2, 2, 2, 3, 4),
			testRun(3, 2, 0, 3, 9),
		},
		"tie behind a newer version": {
			testRun(1, 5, 2, 8),
			testRun(2, 7, 2, 8),
			testRun(3, 7, 2, 9),
		},
		"no inputs":     nil,
		"empty inputs":  {testRun(1, 2), testRun(2, 3, 4, 5), testRun(3, 4)},
		"single input":  {testRun(1, 2, 9, 3, 6)},
		"newest last":   {testRun(1, 1, 0, 1, 2, 3), testRun(2, 9, 3)},
		"disjoint keys": {testRun(1, 1, 10, 11), testRun(2, 1, 0, 1), testRun(3, 1, 5)},
	}
	for name, inputs := range cases {
		t.Run(name, func(t *testing.T) { checkMerge(t, inputs) })
	}
	rng := rand.New(rand.NewPCG(24, 1))
	t.Run("base-run shape", func(t *testing.T) {
		inputs := baseShape(rng, 4, 256, 2000)
		checkMerge(t, inputs)
		// the base first, as when a level merges into the one below
		last := len(inputs) - 1
		checkMerge(t, slices.Concat(inputs[last:], inputs[:last]))
	})
	t.Run("random", func(t *testing.T) {
		data := make([]byte, 160)
		for range 500 {
			for i := range data {
				data[i] = byte(rng.UintN(256))
			}
			checkMerge(t, runsFromBytes(data))
		}
	})
}

func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 2, 1, 3, 1, 3, 2, 1, 2, 3, 2, 4, 2})        // overlap, equal versions
	f.Add([]byte{0, 0, 4, 9, 3, 9, 2, 9, 1, 9, 0})                    // empty inputs around one
	f.Add([]byte{31, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0}) // one base-like run
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMerge(t, runsFromBytes(data))
	})
}

var mergeSink []runEntry

// BenchmarkMergeRuns merges four 4096-key runs over a 50k-key base run,
// a major compaction's input shape.
func BenchmarkMergeRuns(b *testing.B) {
	inputs := baseShape(rand.New(rand.NewPCG(24, 2)), 4, 4096, 50_000)
	b.ReportAllocs()
	for b.Loop() {
		mergeSink = mergeRuns(nil, inputs, 50_000)
	}
}

func TestAllocatorFitsMatchesTake(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 3))
	a := newAllocator(extent{off: 0, len: 1 << 20})
	var live []extent
	for step := range 3000 {
		n := int64(rng.IntN(64)+1) * sector
		var largest int64
		for _, e := range a.free {
			largest = max(largest, e.len)
		}
		for _, want := range []int64{n, largest, largest + sector} {
			probe := &allocator{area: a.area, free: slices.Clone(a.free)}
			_, ok := probe.take(want)
			if a.fits(want) != ok {
				t.Fatalf("step %d: fits(%d) = %v, take = %v on %v", step, want, !ok, ok, a.free)
			}
		}
		if rng.IntN(3) > 0 || len(live) == 0 {
			if off, ok := a.take(n); ok {
				live = append(live, extent{off: off, len: n})
			}
		} else {
			i := rng.IntN(len(live))
			a.release(live[i])
			live = slices.Delete(live, i, i+1)
		}
	}
}
