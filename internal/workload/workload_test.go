package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/checkin-kv/checkin/internal/sim"
)

func TestOpKindString(t *testing.T) {
	want := map[OpKind]string{
		OpRead: "read", OpUpdate: "update", OpInsert: "insert", OpReadModifyWrite: "rmw",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("OpKind(%d) = %q, want %q", k, k.String(), s)
		}
	}
	if OpKind(42).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestUniformCoversKeySpace(t *testing.T) {
	rng := sim.NewRNG(1)
	u := Uniform{Keys: 100}
	seen := make(map[int64]int)
	for i := 0; i < 100000; i++ {
		k := u.Next(rng)
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k]++
	}
	if len(seen) != 100 {
		t.Errorf("uniform hit %d/100 keys", len(seen))
	}
	// Roughly flat: every key within 3x of expectation.
	for k, n := range seen {
		if n < 1000/3 || n > 3000 {
			t.Errorf("key %d drawn %d times (expected ~1000)", k, n)
		}
	}
	if u.Name() != "uniform" {
		t.Error("name wrong")
	}
}

func TestZipfianSkew(t *testing.T) {
	rng := sim.NewRNG(2)
	z := NewZipfian(10000, DefaultTheta)
	counts := make(map[int64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 10000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Sort key frequencies descending; the hot tail must dominate.
	freqs := make([]int, 0, len(counts))
	for _, n := range counts {
		freqs = append(freqs, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	top10 := 0
	for i := 0; i < 10 && i < len(freqs); i++ {
		top10 += freqs[i]
	}
	share := float64(top10) / draws
	// With θ=0.99 over 10k keys the top 10 keys carry roughly 25-45 %.
	if share < 0.15 {
		t.Errorf("top-10 key share = %.3f, distribution not skewed", share)
	}
	// But the tail must still be reachable.
	if len(counts) < 2000 {
		t.Errorf("only %d distinct keys drawn; scrambling broken?", len(counts))
	}
	if z.Name() != "zipfian" {
		t.Error("name wrong")
	}
}

func TestZipfianDeterminism(t *testing.T) {
	z := NewZipfian(1000, DefaultTheta)
	a := sim.NewRNG(7)
	b := sim.NewRNG(7)
	for i := 0; i < 1000; i++ {
		if z.Next(a) != z.Next(b) {
			t.Fatal("zipfian not deterministic for equal seeds")
		}
	}
}

// TestZipfianStreamPinned: the first 10k keys of seeded Zipfian streams,
// and 10k MixSizer sizes (which hash keys through scramble too), match
// digests recorded from the generator before its rank-1 threshold was
// precomputed and its FNV-1a hash written out. Every recorded workload and
// every published table rests on these streams.
func TestZipfianStreamPinned(t *testing.T) {
	digest := func(next func(i int) int64) (uint64, []int64) {
		h := fnv.New64a()
		var first []int64
		for i := 0; i < 10_000; i++ {
			k := next(i)
			if i < 4 {
				first = append(first, k)
			}
			fmt.Fprintf(h, "%d,", k)
		}
		return h.Sum64(), first
	}
	for _, c := range []struct {
		n     int64
		theta float64
		seed  int64
		first []int64
		sum   uint64
	}{
		{1000, DefaultTheta, 7, []int64{295, 511, 511, 189}, 0x99a616f6ee3c4cd0},
		{20_000, DefaultTheta, 1, []int64{8765, 4014, 18103, 371}, 0xfe506301ac85d4f6},
		{2000, 0.5, 3, []int64{351, 959, 654, 1901}, 0x45b5f3cfaedcb3bd},
		{100_000, 0.9, 11, []int64{102, 12399, 3975, 58886}, 0x39a48732f9bbbc71},
	} {
		z, rng := NewZipfian(c.n, c.theta), sim.NewRNG(c.seed)
		sum, first := digest(func(int) int64 { return z.Next(rng) })
		if sum != c.sum || fmt.Sprint(first) != fmt.Sprint(c.first) {
			t.Errorf("zipfian n=%d theta=%v seed=%d: first keys %v digest %#x, want %v %#x",
				c.n, c.theta, c.seed, first, sum, c.first, c.sum)
		}
	}
	m := NewMixSizer("m", []int{128, 512, 4096}, []int{5, 3, 2})
	if sum, _ := digest(func(i int) int64 { return int64(m.SizeOf(int64(i))) }); sum != 0x6731b21b5666c46 {
		t.Errorf("mix sizer digest %#x, want 0x6731b21b5666c46", sum)
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z, rng := NewZipfian(20_000, DefaultTheta), sim.NewRNG(1)
	b.ReportAllocs()
	for b.Loop() {
		z.Next(rng)
	}
}

func TestZipfianPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipfian(0, DefaultTheta) },
		func() { NewZipfian(10, 0) },
		func() { NewZipfian(10, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid zipfian accepted")
				}
			}()
			fn()
		}()
	}
}

func TestZetaMatchesDirectSum(t *testing.T) {
	got := zeta(4, 1.0-1e-12) // θ→1: harmonic-ish
	want := 1 + 0.5 + 1.0/3 + 0.25
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("zeta(4) = %v, want %v", got, want)
	}
}

// TestMemoZetaMatchesDirectSum: the memoised sum equals the direct one bit
// for bit, on first use and from the cache, with generators built on
// concurrent goroutines as the runner builds them.
func TestMemoZetaMatchesDirectSum(t *testing.T) {
	cases := []struct {
		n     int64
		theta float64
	}{{1, DefaultTheta}, {1000, DefaultTheta}, {20_000, DefaultTheta}, {20_000, 0.5}, {4321, 0.8}}
	for _, c := range cases {
		want := math.Float64bits(zeta(c.n, c.theta))
		var wg sync.WaitGroup
		got := make([]uint64, 4)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = math.Float64bits(NewZipfian(c.n, c.theta).zetaN)
			}()
		}
		wg.Wait()
		got = append(got, math.Float64bits(memoZeta(c.n, c.theta)))
		for i, g := range got {
			if g != want {
				t.Errorf("zeta(%d, %v) call %d = %x, direct sum %x", c.n, c.theta, i, g, want)
			}
		}
	}
}

func TestFixedSizer(t *testing.T) {
	s := FixedSizer{Size: 512}
	if s.SizeOf(0) != 512 || s.SizeOf(99999) != 512 {
		t.Error("fixed sizer varies")
	}
	if s.Name() != "fixed-512B" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestMixSizerStableAndWeighted(t *testing.T) {
	m := NewMixSizer("test", []int{128, 4096}, []int{3, 1})
	counts := map[int]int{}
	for k := int64(0); k < 40000; k++ {
		sz := m.SizeOf(k)
		if sz != m.SizeOf(k) {
			t.Fatal("size not stable for a key")
		}
		counts[sz]++
	}
	frac128 := float64(counts[128]) / 40000
	if frac128 < 0.70 || frac128 > 0.80 {
		t.Errorf("128B fraction = %.3f, want ~0.75", frac128)
	}
	if m.Name() != "test" {
		t.Error("name wrong")
	}
}

func TestMixSizerPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMixSizer("x", nil, nil) },
		func() { NewMixSizer("x", []int{128}, []int{1, 2}) },
		func() { NewMixSizer("x", []int{128}, []int{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad mix accepted")
				}
			}()
			fn()
		}()
	}
}

func TestPatterns(t *testing.T) {
	for _, p := range []*MixSizer{PatternP1, PatternP2, PatternP3, PatternP4} {
		for k := int64(0); k < 1000; k++ {
			sz := p.SizeOf(k)
			if sz < 128 || sz > 4096 {
				t.Errorf("%s produced size %d outside [128,4096]", p.Name(), sz)
			}
		}
	}
	// P2 skews small, P3 skews large.
	var sum2, sum3 int
	for k := int64(0); k < 10000; k++ {
		sum2 += PatternP2.SizeOf(k)
		sum3 += PatternP3.SizeOf(k)
	}
	if sum2 >= sum3 {
		t.Error("P2 (small mix) mean size not below P3 (large mix)")
	}
}

func TestMixValidate(t *testing.T) {
	for _, m := range []Mix{WorkloadA, WorkloadF, WorkloadWO} {
		if err := m.Validate(); err != nil {
			t.Errorf("paper mix %+v rejected: %v", m, err)
		}
	}
	if err := (Mix{ScanPct: 100, ScanLen: MaxScanLen}).Validate(); err != nil {
		t.Errorf("longest scan rejected: %v", err)
	}
	bad := []Mix{
		{ReadPct: 50, UpdatePct: 40},
		{ReadPct: -10, UpdatePct: 110},
		{ReadPct: 120, UpdatePct: -20},
		{ScanPct: 100, ScanLen: -1},
		{ScanPct: 100, ScanLen: MaxScanLen + 1},
		{ReadPct: 100, ScanLen: 1 << 20}, // a scan length is checked even without scans
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("mix %+v accepted", m)
		}
	}
}

func TestMixName(t *testing.T) {
	if MixName(WorkloadA) != "A" || MixName(WorkloadF) != "F" || MixName(WorkloadWO) != "WO" {
		t.Error("paper mix names wrong")
	}
	if MixName(Mix{ReadPct: 10, UpdatePct: 90}) != "r10/u90/rmw0" {
		t.Errorf("custom mix name = %q", MixName(Mix{ReadPct: 10, UpdatePct: 90}))
	}
}

func TestGeneratorMixProportions(t *testing.T) {
	rng := sim.NewRNG(3)
	g, err := NewGenerator(Uniform{Keys: 1000}, FixedSizer{Size: 512}, WorkloadA, rng)
	if err != nil {
		t.Fatal(err)
	}
	var reads, updates int
	for i := 0; i < 100000; i++ {
		op := g.Next()
		switch op.Kind {
		case OpRead:
			reads++
		case OpUpdate:
			updates++
		default:
			t.Fatalf("workload A produced %v", op.Kind)
		}
		if op.Size != 512 {
			t.Fatal("size not applied")
		}
	}
	rf := float64(reads) / 100000
	if rf < 0.48 || rf > 0.52 {
		t.Errorf("read fraction = %.3f, want ~0.5", rf)
	}
}

func TestGeneratorWorkloadF(t *testing.T) {
	rng := sim.NewRNG(4)
	g, _ := NewGenerator(Uniform{Keys: 100}, FixedSizer{Size: 256}, WorkloadF, rng)
	var rmw int
	for i := 0; i < 10000; i++ {
		if op := g.Next(); op.Kind == OpReadModifyWrite {
			rmw++
		} else if op.Kind != OpRead {
			t.Fatalf("workload F produced %v", op.Kind)
		}
	}
	if rmw < 4700 || rmw > 5300 {
		t.Errorf("rmw count = %d, want ~5000", rmw)
	}
}

func TestGeneratorRejectsBadMix(t *testing.T) {
	if _, err := NewGenerator(Uniform{Keys: 10}, FixedSizer{Size: 1}, Mix{ReadPct: 10}, sim.NewRNG(0)); err == nil {
		t.Error("bad mix accepted by NewGenerator")
	}
}

func TestLoadOps(t *testing.T) {
	ops := LoadOps(10, FixedSizer{Size: 777})
	if len(ops) != 10 {
		t.Fatalf("LoadOps returned %d ops", len(ops))
	}
	for i, op := range ops {
		if op.Kind != OpInsert || op.Key != int64(i) || op.Size != 777 {
			t.Fatalf("LoadOps[%d] = %+v", i, op)
		}
	}
}

func TestScrambleNonNegativeProperty(t *testing.T) {
	err := quick.Check(func(v int64) bool {
		s := scramble(v)
		return s >= 0
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Error(err)
	}
}

// TestOpIs16Bytes: an Op is 16 bytes, so every recorded trace, arrival and
// query in flight holds 16 bytes per operation.
func TestOpIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 16 {
		t.Fatalf("Op is %d bytes, want 16", n)
	}
}

// keySizer gives key 3 size bad and every other key 512 bytes: a sizer
// checkSizer can only judge by asking it for every key.
type keySizer struct{ bad int }

func (s keySizer) SizeOf(key int64) int {
	if key == 3 {
		return s.bad
	}
	return 512
}
func (keySizer) Name() string { return "key-sizer" }

// TestSizerBounds: a record size outside [1, math.MaxInt32] is an error
// from NewGenerator and NewOpenLoop, whether the sizer declares its sizes
// (FixedSizer, MixSizer) or must be asked for every key; LoadOps panics on
// one. The bounds themselves are accepted.
func TestSizerBounds(t *testing.T) {
	const keys = 10
	for _, c := range []struct {
		sizer Sizer
		ok    bool
	}{
		{FixedSizer{Size: 1}, true},
		{FixedSizer{Size: math.MaxInt32}, true},
		{FixedSizer{Size: 0}, false},
		{FixedSizer{Size: math.MaxInt32 + 1}, false},
		{NewMixSizer("m", []int{1, math.MaxInt32}, []int{1, 1}), true},
		{NewMixSizer("m", []int{512, 0}, []int{1, 1}), false},
		{NewMixSizer("m", []int{math.MaxInt32 + 1, 512}, []int{1, 1}), false},
		{keySizer{bad: 1}, true},
		{keySizer{bad: -1}, false},
		{keySizer{bad: math.MaxInt32 + 1}, false},
	} {
		_, err := NewGenerator(Uniform{Keys: keys}, c.sizer, WorkloadA, sim.NewRNG(1))
		if c.ok != (err == nil) {
			t.Errorf("NewGenerator with %s %+v: err %v, want ok=%v", c.sizer.Name(), c.sizer, err, c.ok)
		}
		cfg := poissonCfg(1000, TenantSpec{Name: "t", Weight: 1, Keys: keys, Mix: WorkloadA})
		cfg.Sizer = c.sizer
		_, err = NewOpenLoop(cfg, 1)
		if c.ok != (err == nil) {
			t.Errorf("NewOpenLoop with %s %+v: err %v, want ok=%v", c.sizer.Name(), c.sizer, err, c.ok)
		}
		func() {
			defer func() {
				if p := recover(); c.ok != (p == nil) {
					t.Errorf("LoadOps with %s %+v: panic %v, want ok=%v", c.sizer.Name(), c.sizer, p, c.ok)
				}
			}()
			LoadOps(keys, c.sizer)
		}()
	}
}
