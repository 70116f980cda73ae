package check

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/inject"
)

// FuzzJournalRecovery and FuzzLSMRecovery let the fuzzer steer the crash
// schedule directly: each picks (seed, strategy, stack, site, hit) over the
// crash table's stacks of its engine and their schedules, the harness
// crashes at that instant, and recovery must equal the reference model with
// the SPOR rebuild lossless and the FTL invariants intact. Unlike the
// table, which samples a few hits per site, the fuzzers walk arbitrary hit
// offsets and seed, strategy and stack corners. A hit past the site's
// schedule never fires; the run still validates crash-free at the end.
// Seeds are folded into 1–16 to bound the trace cache. Because the
// schedule is the table's, a failure's repro line replays the same run
// under checkin-sim -crashpoints.
func FuzzJournalRecovery(f *testing.F) {
	// Stack indexes follow engineStacks("journal"): 0 dram/off, 1 dram/heavy,
	// 2 dftl/off, 3 dftl-basic/off.
	f.Add(int64(1), uint8(4), uint8(0), uint8(inject.SiteJournalCommit), uint8(3))
	f.Add(int64(2), uint8(0), uint8(0), uint8(inject.SiteJournalAppend), uint8(40))
	f.Add(int64(3), uint8(3), uint8(0), uint8(inject.SiteCheckpointRemap), uint8(1))
	f.Add(int64(5), uint8(1), uint8(0), uint8(inject.SiteCheckpointCopy), uint8(2))
	f.Add(int64(7), uint8(2), uint8(0), uint8(inject.SiteDeallocate), uint8(5))
	f.Add(int64(11), uint8(4), uint8(0), uint8(inject.SiteMetaFlush), uint8(1))
	f.Add(int64(1), uint8(0), uint8(1), uint8(inject.SiteProgramFail), uint8(1))
	f.Add(int64(1), uint8(2), uint8(2), uint8(inject.SiteTransFlush), uint8(2))
	f.Fuzz(fuzzRecovery(engineStacks("journal")))
}

func FuzzLSMRecovery(f *testing.F) {
	// Stack indexes follow engineStacks("lsm"): 0 leveled/dram/off,
	// 1 tiered/dram/off, 2 leveled/dftl/heavy, 5 tiered/dftl-basic/heavy.
	f.Add(int64(1), uint8(4), uint8(0), uint8(inject.SiteWALCommit), uint8(3))
	f.Add(int64(2), uint8(0), uint8(0), uint8(inject.SiteMemFlush), uint8(2))
	f.Add(int64(3), uint8(4), uint8(1), uint8(inject.SiteCompactInstall), uint8(1))
	f.Add(int64(5), uint8(3), uint8(0), uint8(inject.SiteManifestPublish), uint8(4))
	f.Add(int64(7), uint8(1), uint8(1), uint8(inject.SiteWALAppend), uint8(60))
	f.Add(int64(2), uint8(4), uint8(2), uint8(inject.SiteTransGC), uint8(1))
	f.Add(int64(3), uint8(3), uint8(5), uint8(inject.SiteReadRetry), uint8(5))
	f.Fuzz(fuzzRecovery(engineStacks("lsm")))
}

// fuzzRecovery is the fuzz body over stacks: a crash that leaves recovery
// wrong fails with its repro line.
func fuzzRecovery(stacks []Stack) func(*testing.T, int64, uint8, uint8, uint8, uint8) {
	return func(t *testing.T, seed int64, strategyB, stackB, siteB, hitB uint8) {
		if res := fuzzCrash(t, stacks, seed, strategyB, stackB, siteB, hitB); res.Err != nil {
			t.Fatalf("%s\n  reproduce: %s", res, res.Repro())
		}
	}
}

// engineStacks lists the crash table's stacks on engine, in table order.
func engineStacks(engine string) []Stack {
	var out []Stack
	for _, st := range tableStacks() {
		if st.norm().Engine == engine {
			out = append(out, st)
		}
	}
	return out
}

// fuzzCrash runs a fuzzer's crash for one input over stacks.
func fuzzCrash(t *testing.T, stacks []Stack, seed int64, strategyB, stackB, siteB, hitB uint8) CrashResult {
	seed = int64(uint64(seed-1)%16) + 1
	strategy := checkin.Strategies[int(strategyB)%len(checkin.Strategies)]
	opts := stacks[int(stackB)%len(stacks)].Schedule()
	site := inject.Site(int(siteB) % int(inject.NumSites))
	return RunCrash(strategy, seed, site, int(hitB)%200+1, trace(t, opts, seed), opts)
}

// TestDFTLReproLine: a fuzz result's repro line on a flash-map stack
// carries the stack's flags and, run the way checkin-sim -crashpoints runs
// it (the line's stack selects the schedule and the trace), ends exactly as
// the fuzzed run did.
func TestDFTLReproLine(t *testing.T) {
	want := fuzzCrash(t, engineStacks("lsm"), 2, 4, 2, uint8(inject.SiteTransGC), 0)
	if !want.Fired || want.Err != nil {
		t.Fatalf("fuzzed run: %s", want)
	}
	line := want.Repro()
	if !strings.Contains(line, "-ftlmap=dftl") || !strings.Contains(line, "-site=trans-gc") {
		t.Errorf("repro line %q missing -ftlmap/-site", line)
	}
	r := parseRepro(t, line)
	opts := r.Stack.Schedule()
	tr, err := NewTrace(opts, r.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := RunCrash(r.Strategy, r.Seed, r.Site, r.Hit, tr, opts); got.String() != want.String() || got.Repro() != line {
		t.Errorf("replay of %q ended %s, want %s", line, got, want)
	}
}

// parseRepro reads a repro line back as checkin-sim's flags do: each
// -name=value sets one field, and an absent stack flag leaves its field
// empty, which Stack reads as the flag's default.
func parseRepro(t *testing.T, line string) CrashResult {
	t.Helper()
	args, ok := strings.CutPrefix(line, "checkin-sim -crashpoints ")
	if !ok {
		t.Fatalf("repro line %q does not run checkin-sim -crashpoints", line)
	}
	var r CrashResult
	for _, arg := range strings.Fields(args) {
		var err error
		name, v, _ := strings.Cut(strings.TrimPrefix(arg, "-"), "=")
		switch name {
		case "strategy":
			r.Strategy, err = checkin.ParseStrategy(v)
		case "seed":
			r.Seed, err = strconv.ParseInt(v, 10, 64)
		case "site":
			r.Site, err = inject.ParseSite(v)
		case "hit":
			r.Hit, err = strconv.Atoi(v)
		case "engine":
			r.Stack.Engine = v
		case "compaction":
			r.Stack.Compaction = v
		case "ftlmap":
			r.Stack.FTLMap = v
		case "errors":
			r.Stack.Errors = v
		default:
			err = fmt.Errorf("unknown flag %s", arg)
		}
		if err != nil {
			t.Fatalf("repro line %q: %v", line, err)
		}
	}
	return r
}
