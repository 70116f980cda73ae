package check

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/inject"
)

const (
	baseline = checkin.StrategyBaseline
	iscA     = checkin.StrategyISCA
	iscB     = checkin.StrategyISCB
	iscC     = checkin.StrategyISCC
	checkIn  = checkin.StrategyCheckIn
)

var (
	// matrixSeeds are the seeds a full row covers: every fired site × all
	// five strategies × ≥ 3 seeds.
	matrixSeeds = []int64{1, 2, 3}
	lsmLeveled  = Stack{Engine: "lsm"}
	lsmTiered   = Stack{Engine: "lsm", Compaction: "tiered"}
)

// row is one line of the crash table: a stack crashed under strategies ×
// seeds. test names the test that runs the row and label prefixes its
// subtests, so each cell keeps the name it had in the single-axis matrix
// that first ran it.
type row struct {
	test, label string
	stack       Stack
	strategies  []checkin.Strategy
	seeds       []int64
}

// crashTable is every crash cell of the package. With the combined rows at
// its end, every pair of values of two axes — engine and compaction policy,
// mapping table, error profile — meets in some row (TestCrashTable).
var crashTable = []row{
	{"TestCrashMatrix", "", Stack{}, checkin.Strategies, matrixSeeds},
	{"TestErrorMatrix", "", Stack{Errors: "heavy"}, checkin.Strategies, matrixSeeds},
	{"TestDFTLCrashMatrix", "", Stack{FTLMap: "dftl"}, checkin.Strategies, matrixSeeds},
	// The basic layer's paths (demanded-entry insert, strict-LRU eviction,
	// no cut batch) on the two remap strategies.
	{"TestDFTLCrashMatrix", "dftl-basic", Stack{FTLMap: "dftl-basic"}, []checkin.Strategy{checkIn, iscC}, matrixSeeds[:1]},
	// Baseline and Check-In crash on every seed; ISC-A, ISC-B and ISC-C on
	// one each, a different one per strategy.
	{"TestLSMCrashMatrix", "leveled", lsmLeveled, []checkin.Strategy{baseline, checkIn}, matrixSeeds},
	{"TestLSMCrashMatrix", "leveled", lsmLeveled, []checkin.Strategy{iscA}, []int64{2}},
	{"TestLSMCrashMatrix", "leveled", lsmLeveled, []checkin.Strategy{iscB}, []int64{3}},
	{"TestLSMCrashMatrix", "leveled", lsmLeveled, []checkin.Strategy{iscC}, []int64{1}},
	{"TestLSMCrashMatrix", "tiered", lsmTiered, []checkin.Strategy{baseline, checkIn}, matrixSeeds},
	{"TestLSMCrashMatrix", "tiered", lsmTiered, []checkin.Strategy{iscA}, []int64{2}},
	{"TestLSMCrashMatrix", "tiered", lsmTiered, []checkin.Strategy{iscB}, []int64{3}},
	{"TestLSMCrashMatrix", "tiered", lsmTiered, []checkin.Strategy{iscC}, []int64{1}},
	// Combined stacks: the LSM over a flash-resident map, with and without
	// NAND faults. checkin-sim -crashpoints runs the other strategies.
	{"TestCrashMatrix", "lsm-leveled/dftl/heavy", Stack{"lsm", "", "dftl", "heavy"}, []checkin.Strategy{iscC, checkIn}, []int64{2}},
	{"TestCrashMatrix", "lsm-leveled/dftl-basic/off", Stack{"lsm", "", "dftl-basic", ""}, []checkin.Strategy{baseline, iscA}, []int64{1}},
	{"TestCrashMatrix", "lsm-tiered/dftl/off", Stack{"lsm", "tiered", "dftl", ""}, []checkin.Strategy{iscB, checkIn}, []int64{3}},
	{"TestCrashMatrix", "lsm-tiered/dftl-basic/heavy", Stack{"lsm", "tiered", "dftl-basic", "heavy"}, []checkin.Strategy{baseline, iscC}, []int64{3}},
}

// TestCrashMatrix, TestErrorMatrix, TestDFTLCrashMatrix and
// TestLSMCrashMatrix run the crash table's rows, each its own.
func TestCrashMatrix(t *testing.T)     { runTable(t) }
func TestErrorMatrix(t *testing.T)     { runTable(t) }
func TestDFTLCrashMatrix(t *testing.T) { runTable(t) }
func TestLSMCrashMatrix(t *testing.T)  { runTable(t) }

// runTable runs the crash table's rows that belong to t's test, a labelled
// row under a subtest of its label. Each (strategy, seed) cell, in parallel
// with the others, censuses the trace, crashes at sampled hits of every
// armed site that fired, and asserts (1) host recovery equals the reference
// model's committed prefix, (2) the device SPOR rebuild loses no durable
// state, (3) the FTL invariants hold, and the census shows the stack's
// coverage. Any failure prints a line that reproduces it in one command.
func runTable(t *testing.T) {
	var labels []string
	for _, r := range crashTable {
		if r.test == t.Name() && r.label != "" && !slices.Contains(labels, r.label) {
			labels = append(labels, r.label)
		}
	}
	runRows(t, t.Name(), "")
	for _, label := range labels {
		t.Run(label, func(lt *testing.T) {
			lt.Parallel()
			runRows(lt, t.Name(), label)
		})
	}
}

// runRows runs the cells of test's rows labelled label as subtests of t.
func runRows(t *testing.T, test, label string) {
	var mu sync.Mutex
	for _, r := range crashTable {
		if r.test != test || r.label != label {
			continue
		}
		opts := r.stack.Schedule()
		var rowHits [inject.NumSites]int
		t.Cleanup(func() { // after every cell of the row
			for _, site := range opts.Must.Some {
				if rowHits[site] == 0 {
					t.Errorf("%s never hit site %s across %v × seeds %v — crash coverage lost", r.stack, site, r.strategies, r.seeds)
				}
			}
		})
		for _, seed := range r.seeds {
			for _, s := range r.strategies {
				t.Run(fmt.Sprintf("%s/seed%d", s, seed), func(t *testing.T) {
					t.Parallel()
					results, census, err := CrashMatrix(s, seed, trace(t, opts, seed), opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(results) == 0 {
						t.Fatal("matrix produced no crash runs")
					}
					for _, r := range results {
						if !r.Fired {
							t.Errorf("%s — armed crash never fired (census drifted?)", r)
						}
						if r.Err != nil {
							t.Errorf("%s\n  reproduce: %s", r, r.Repro())
						}
					}
					checkCoverage(t, s, opts.Must, census)
					if census.Health.ReadOnly {
						t.Errorf("%s ended its census read-only (%+v): late crash points test a store that rejects writes", r.stack, census.Health)
					}
					mu.Lock()
					defer mu.Unlock()
					for site, n := range census.RunHits {
						rowHits[site] += n
					}
				})
			}
		}
	}
}

// checkCoverage asserts that a census of strategy s hits every site c
// wants of it and none c forbids, so a change that silently stops (or
// starts) reaching a crash point fails loudly.
func checkCoverage(t *testing.T, s checkin.Strategy, c Coverage, census *Census) {
	t.Helper()
	every := c.Every
	switch {
	case s.UsesRemap():
		every = union(every, c.Remap)
	case s.Offloaded():
		every = union(every, c.Copy)
	}
	for _, site := range every {
		if census.RunHits[site] == 0 {
			t.Errorf("%s never hit site %s — crash coverage lost", s, site)
		}
	}
	for _, site := range c.Never {
		if n := census.RunHits[site]; n != 0 {
			t.Errorf("%s hit site %s %d times, which this stack must never reach", s, site, n)
		}
	}
}

// traces memoizes recorded traces: table cells, equivalence tests and the
// fuzzer revisit them, and recording is the expensive part.
var traces sync.Map // [3]int64{keys, ops, seed} -> *checkin.Trace

func trace(t testing.TB, opts Options, seed int64) *checkin.Trace {
	key := [3]int64{opts.Keys, int64(opts.Ops), seed}
	if tr, ok := traces.Load(key); ok {
		return tr.(*checkin.Trace)
	}
	tr, err := NewTrace(opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := traces.LoadOrStore(key, tr)
	return cached.(*checkin.Trace)
}

// tableStacks lists the crash table's stacks once each, in table order.
func tableStacks() []Stack {
	var out []Stack
	for _, r := range crashTable {
		if !slices.Contains(out, r.stack) {
			out = append(out, r.stack)
		}
	}
	return out
}

// productStacks is engine × compaction × ftlmap × errors (off, heavy): the
// 18 stacks CI's full-product step crashes through checkin-sim.
func productStacks() []Stack {
	var out []Stack
	for _, eng := range []Stack{{}, lsmLeveled, lsmTiered} {
		for _, m := range []string{"dram", "dftl", "dftl-basic"} {
			for _, e := range []string{"off", "heavy"} {
				out = append(out, Stack{eng.Engine, eng.Compaction, m, e})
			}
		}
	}
	return out
}

// TestCrashTable pins the table's shape: the 65 cells of the four
// single-axis matrices plus the 8 of the combined rows, every row run by
// one of the four matrix tests, and every pair of values of two axes
// meeting in some row.
func TestCrashTable(t *testing.T) {
	tests := map[string]bool{"TestCrashMatrix": true, "TestErrorMatrix": true, "TestDFTLCrashMatrix": true, "TestLSMCrashMatrix": true}
	met := map[[2]string]bool{}
	pairs := func(st Stack) [][2]string {
		v := strings.Split(st.String(), "/")
		return [][2]string{{v[0], v[1]}, {v[0], v[2]}, {v[1], v[2]}}
	}
	cells := 0
	for _, r := range crashTable {
		if !tests[r.test] {
			t.Errorf("row %s names test %q, which does not run it", r.stack, r.test)
		}
		cells += len(r.strategies) * len(r.seeds)
		for _, p := range pairs(r.stack) {
			met[p] = true
		}
	}
	if cells != 65+8 {
		t.Errorf("crash table has %d cells, want 73", cells)
	}
	for _, st := range productStacks() {
		for _, p := range pairs(st) {
			if !met[p] {
				t.Errorf("no row of the crash table runs %s with %s", p[0], p[1])
			}
		}
	}
}

// TestCrashFreeValidationAllStrategies: with no crash armed, the census
// run itself must pass the full validation (it does, inside RunCensus) and
// the model must agree with the engine's own durable-version accounting.
func TestCrashFreeValidationAllStrategies(t *testing.T) {
	opts := Stack{}.Schedule()
	tr := trace(t, opts, 5)
	for _, s := range checkin.Strategies {
		_, model, db, err := RunCensus(s, 5, tr, opts)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		durable := db.DurableVersions()
		for k := range durable {
			if model.Committed()[k] != durable[k] {
				t.Fatalf("%s: model committed v%d != engine durable v%d at key %d",
					s, model.Committed()[k], durable[k], k)
			}
		}
	}
}

func TestModelBasics(t *testing.T) {
	m := NewModel(3)
	if got := m.Committed(); got[0] != 0 || got[2] != 0 {
		t.Fatal("fresh model not at version 0")
	}
	m.Loaded()
	m.Commit(1, 5)
	m.Commit(1, 4) // stale commit must not regress
	want := []int64{1, 5, 1}
	if !reflect.DeepEqual(m.Committed(), want) {
		t.Fatalf("model = %v, want %v", m.Committed(), want)
	}
}

func TestSampleHits(t *testing.T) {
	cases := []struct {
		n, k int
		want []int
	}{
		{0, 2, []int{}},
		{1, 2, []int{1}},
		{2, 2, []int{1, 2}},
		{5, 2, []int{1, 5}},
		{10, 3, []int{1, 5, 10}},
		{7, 1, []int{4}},
	}
	for _, c := range cases {
		if got := sampleHits(c.n, c.k); !reflect.DeepEqual(got, c.want) {
			t.Errorf("sampleHits(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

// TestCrashResultRepro pins the repro line, which carries a stack flag only
// where it differs from checkin-sim's default, and reads the line of a
// result on every stack of the product back: its flags must select the
// strategy, seed, site, hit and schedule the run used.
func TestCrashResultRepro(t *testing.T) {
	for st, want := range map[Stack]string{
		{}: "checkin-sim -crashpoints -strategy=ISC-C -seed=3 -site=trans-evict -hit=17",
		{"lsm", "tiered", "dftl-basic", "heavy"}: "checkin-sim -crashpoints -strategy=ISC-C -seed=3 -site=trans-evict -hit=17" +
			" -errors=heavy -ftlmap=dftl-basic -engine=lsm -compaction=tiered",
		{"journal", "tiered", "dram", "OFF"}: "checkin-sim -crashpoints -strategy=ISC-C -seed=3 -site=trans-evict -hit=17",
	} {
		r := CrashResult{Strategy: iscC, Seed: 3, Stack: st, Site: inject.SiteTransEvict, Hit: 17}
		if got := r.Repro(); got != want {
			t.Errorf("repro line of %s:\n got %s\nwant %s", st, got, want)
		}
	}
	for _, st := range productStacks() {
		r := CrashResult{Strategy: checkIn, Seed: 2, Stack: st, Site: inject.SiteWALCommit, Hit: 3}
		got := parseRepro(t, r.Repro())
		if got.Strategy != r.Strategy || got.Seed != r.Seed || got.Site != r.Site || got.Hit != r.Hit ||
			!reflect.DeepEqual(got.Stack.Schedule(), st.Schedule()) {
			t.Errorf("repro line %q reads back as %+v, schedule %+v; the run used %+v, schedule %+v",
				r.Repro(), got, got.Stack.Schedule(), r, st.Schedule())
		}
	}
}
