// Command checkin-sim runs one simulated key-value store configuration and
// prints its metrics — the single-run front end to the Check-In
// reproduction (checkin-bench drives full paper experiments).
//
// Usage:
//
//	checkin-sim -strategy Check-In -threads 64 -queries 100000 -workload A
//	checkin-sim -print-config
//	checkin-sim -strategy Baseline -recover
//	checkin-sim -crashpoints -strategy=Check-In -seed=3
//	checkin-sim -crashpoints -strategy=Check-In -seed=3 -site=journal-commit -hit=17
//	checkin-sim -strategy Check-In -errors heavy
//	checkin-sim -crashpoints -strategy=Check-In -seed=2 -site=read-retry -hit=5 -errors=heavy
//	checkin-sim -crashpoints -strategy=Check-In -seed=2 -engine=lsm -ftlmap=dftl -errors=heavy
//
// -crashpoints takes any combination of -engine, -compaction, -ftlmap and
// -errors: the crash schedule is derived from those four values alone, so
// a repro line printed by the tests replays the run that failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/check"
	"github.com/checkin-kv/checkin/internal/cli"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/shard"
)

func main() {
	var (
		strategy    = flag.String("strategy", "Check-In", "Baseline | ISC-A | ISC-B | ISC-C | Check-In")
		threads     = flag.Int("threads", 64, "client threads")
		queries     = flag.Int64("queries", 50_000, "total queries")
		wl          = flag.String("workload", "A", "A | F | WO")
		dist        = flag.String("distribution", "zipfian", "zipfian | uniform")
		keys        = flag.Int64("keys", 20_000, "record count")
		interval    = flag.Duration("interval", 300*time.Millisecond, "checkpoint interval (simulated)")
		unit        = flag.Int("unit", 0, "FTL mapping unit bytes (0 = strategy default)")
		lock        = flag.Bool("lock", false, "lock query admission during checkpoints")
		doRecover   = flag.Bool("recover", false, "simulate a crash + recovery after the run")
		doSPOR      = flag.Bool("spor", false, "simulate a sudden power-off + device OOB recovery after the run")
		timeline    = flag.String("timeline", "", "write a CSV timeline of the run to this file (10ms samples)")
		dumpTrace   = flag.Bool("trace", false, "print the run's structured event trace summary and tail")
		printConfig = flag.Bool("print-config", false, "print the resolved configuration and exit")
		crashpoints = flag.Bool("crashpoints", false, "run the crash-point verification harness instead of a benchmark")
		site        = flag.String("site", "", "crashpoints: injection site name (empty = every site the census finds)")
		hit         = flag.Int("hit", 0, "crashpoints: 1-based hit index of -site to crash at")
		compaction  = flag.String("compaction", "leveled", "lsm: compaction policy, leveled | tiered")
		memtable    = flag.Int("memtable", 0, "lsm: memtable entry bound before a flush epoch (0 = default 4096)")
		shards      = flag.Int("shards", 0, "run a sharded scale-out simulation across this many engine+SSD stacks (0 = single-stack mode)")
		tenants     = flag.Int("tenants", shard.DefaultTenantCount, "sharded mode: tenant count")
		arrival     = flag.String("arrival", shard.DefaultArrival, "sharded mode: open-loop arrival spec, poisson:RATE[:flash] | diurnal:RATE:AMP:PERIOD[:flash]")
		cksched     = flag.String("cksched", shard.SchedSync, "sharded mode: cross-shard checkpoint scheduling policy, sync | staggered | global")
		admitRate   = flag.Float64("admit-rate", 0, "sharded mode: aggregate admitted ops/sec across per-tenant token buckets (0 = no admission control)")
		stack       = cli.StackFlags("")
		prof        = cli.ProfileFlags()
	)
	flag.Parse()
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "checkin-sim: -shards %d must be >= 0 (0 = single-stack mode)\n", *shards)
		os.Exit(2)
	}
	defer prof.Start(fatal)()

	s, err := checkin.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	cfg, err := stack.Config()
	if err != nil {
		fatal(err)
	}
	if *crashpoints {
		refuseUnhonoured("-crashpoints", crashpointFlags)
		runCrashpoints(s, *stack.Seed, *site, *hit, check.Stack{
			Engine: *stack.Engine, Compaction: *compaction, FTLMap: *stack.FTLMap, Errors: *stack.Errors})
		return
	}
	// Settings both the single-stack and the sharded mode honour.
	cfg.Strategy = s
	cfg.Compaction = *compaction
	cfg.MemtableEntries = *memtable
	cfg.CheckpointInterval = *interval
	if *shards > 0 {
		refuseUnhonoured("-shards", shardedFlags)
		runSharded(cfg, *shards, *tenants, *arrival, *cksched, *admitRate, *queries)
		return
	}
	var mix checkin.Mix
	switch *wl {
	case "A":
		mix = checkin.WorkloadA
	case "F":
		mix = checkin.WorkloadF
	case "WO":
		mix = checkin.WorkloadWO
	default:
		fatal(fmt.Errorf("unknown workload %q (want A, F or WO)", *wl))
	}
	zipf := *dist == "zipfian"
	if !zipf && *dist != "uniform" {
		fatal(fmt.Errorf("unknown distribution %q", *dist))
	}

	cfg.Keys = *keys
	cfg.MappingUnit = *unit
	cfg.LockDuringCheckpoint = *lock
	if *dumpTrace {
		cfg.TraceCapacity = 10_000
	}

	db, err := checkin.Open(cfg)
	if err != nil {
		fatal(err)
	}
	if *printConfig {
		printResolved(db.Config())
		return
	}
	fmt.Printf("loading %d records (%s)...\n", cfg.Keys, cfg.Records.Name())
	db.Load()

	fmt.Printf("running %d queries, workload %s, %s, %d threads, strategy %v\n",
		*queries, *wl, *dist, *threads, s)
	start := time.Now()
	spec := checkin.RunSpec{
		Threads:      *threads,
		TotalQueries: *queries,
		Mix:          mix,
		Zipfian:      zipf,
	}
	if *timeline != "" {
		spec.SampleInterval = 10 * 1000 * 1000 // 10ms in simulated ns
	}
	m, err := db.Run(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s", m.Summary())
	if !strings.EqualFold(*stack.Errors, "off") {
		ns := db.Device().FTL().Array().Stats()
		h := db.Health()
		fmt.Printf("nand faults        %d retries, %d uncorrectable, %d program fails, %d erase fails\n",
			ns.ReadRetries, ns.UncorrectableReads, ns.ProgramFails, ns.EraseFails)
		fmt.Printf("device health      %d retired blocks, %d spares left, read-only=%v\n",
			h.RetiredBlocks, h.SparesLeft, h.ReadOnly)
	}
	fmt.Printf("journal space overhead %.3f\n", m.JournalSpaceOverhead())
	rc := db.Config()
	fmt.Printf("lifetime projection    %.0f (PECmax / window BEC)\n", m.Lifetime(rc.MaxPECycles, rc.PagesPerBlock))
	fmt.Printf("wall time              %.2fs\n", time.Since(start).Seconds())

	if *timeline != "" && m.Timeline != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			fatal(err)
		}
		if err := m.Timeline.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if spark, err := m.Timeline.Sparkline("kqps", 60); err == nil {
			fmt.Printf("throughput timeline    %s\n", spark)
		}
		fmt.Printf("timeline written to %s (%d samples)\n", *timeline, m.Timeline.Len())
	}

	if *dumpTrace && db.Trace() != nil {
		fmt.Printf("\nevent counts:\n%s", db.Trace().Summary())
		evs := db.Trace().Events()
		tail := evs
		if len(tail) > 20 {
			tail = tail[len(tail)-20:]
		}
		fmt.Println("last events:")
		for _, ev := range tail {
			fmt.Println(" ", ev)
		}
	}

	if *doSPOR {
		rep := db.SimulateSPOR()
		fmt.Printf("\n%s\n", rep)
		if rep.Mismatches != 0 {
			fatal(fmt.Errorf("SPOR mismatches: %d", rep.Mismatches))
		}
	}

	if *doRecover {
		rep := db.SimulateRecovery()
		diverged := rep.Diverged()
		fmt.Printf("\nrecovery: %d/%d keys match durable state, %d logs replayed, %v recovery time\n",
			len(rep.Durable)-diverged, len(rep.Durable), rep.ReplayedLogs, rep.RecoveryTime)
		if diverged > 0 {
			fatal(fmt.Errorf("recovery mismatch: %d keys diverged", diverged))
		}
	}
}

// runCrashpoints drives the internal/check differential harness from the
// CLI on the stack's crash schedule (check.Stack.Schedule), the one the
// tests run. With -site/-hit it reproduces exactly one armed crash — the
// mode a failing test's repro line invokes. Without them it runs the full
// matrix for the strategy and seed: a census of every injection site the
// workload reaches, then sampled armed crashes at each site the stack arms,
// validating host recovery, device SPOR, and FTL invariants at every crash
// instant.
func runCrashpoints(s checkin.Strategy, seed int64, siteName string, hit int, stack check.Stack) {
	opts := stack.Schedule()
	tr, err := check.NewTrace(opts, seed)
	if err != nil {
		fatal(err)
	}
	if siteName != "" {
		site, err := inject.ParseSite(siteName)
		if err != nil {
			fatal(err)
		}
		if hit < 1 {
			hit = 1
		}
		res := check.RunCrash(s, seed, site, hit, tr, opts)
		fmt.Println(res)
		if res.Err != nil {
			os.Exit(1)
		}
		if !res.Fired {
			fatal(fmt.Errorf("site %s never reached hit %d on this trace", site, hit))
		}
		return
	}
	results, census, err := check.CrashMatrix(s, seed, tr, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("crash-point census (strategy=%s seed=%d stack=%s):\n", s, seed, opts.Stack)
	for _, st := range inject.Sites() {
		fmt.Printf("  %-15s %6d hits\n", st, census.RunHits[st])
	}
	failures := 0
	for _, r := range results {
		fmt.Println(" ", r)
		if r.Err != nil || !r.Fired {
			failures++
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d of %d crash-point runs failed", failures, len(results)))
	}
	fmt.Printf("crashpoints: all %d armed runs validated\n", len(results))
}

// runSharded drives the multi-device scale-out front end: N independent
// engine+SSD stacks under open-loop multi-tenant traffic with a cross-shard
// checkpoint scheduling policy. The rendered report is deterministic; only
// the trailing wall-time line varies between machines.
func runSharded(base checkin.Config, shards, tenants int,
	arrival, cksched string, admitRate float64, ops int64) {
	if tenants < 1 {
		fatal(fmt.Errorf("bad -tenants %d (want >= 1)", tenants))
	}
	arr, err := shard.ParseArrival(arrival)
	if err != nil {
		fatal(err)
	}
	arr.Tenants = shard.DefaultTenants(tenants, 2000)
	cfg := shard.Config{
		Shards:          shards,
		Base:            base,
		Arrival:         arr,
		TotalOps:        ops,
		Sched:           cksched,
		AdmitRatePerSec: admitRate,
		Seed:            base.Seed,
	}
	db, err := shard.Open(cfg)
	if err != nil {
		fatal(err)
	}
	rep, err := db.Run()
	if err != nil {
		fatal(err)
	}
	rep.Render(os.Stdout)
	fmt.Printf("wall time %.2fs (load %.2fs)\n", rep.Wall.Seconds(), rep.LoadWall.Seconds())
}

// printResolved writes cfg one field per line, with pointers followed and
// the record sizer named.
func printResolved(cfg checkin.Config) {
	v := reflect.ValueOf(cfg)
	for i := range v.NumField() {
		f := v.Field(i)
		if f.Kind() == reflect.Pointer && !f.IsNil() {
			f = f.Elem()
		}
		val := f.Interface()
		if s, ok := val.(checkin.Sizer); ok {
			val = s.Name()
		}
		fmt.Printf("%-20s %v\n", v.Type().Field(i).Name, val)
	}
}

// refuseUnhonoured exits 2 naming every flag set on the command line that
// mode does not honour, so no setting is silently ignored.
func refuseUnhonoured(mode string, honoured map[string]bool) {
	var ignored []string
	flag.Visit(func(f *flag.Flag) {
		if !honoured[f.Name] {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		fmt.Fprintf(os.Stderr, "checkin-sim: %s does not take %s\n", mode, strings.Join(ignored, " "))
		os.Exit(2)
	}
}

// crashpointFlags are the flags -crashpoints honours; it refuses any other.
var crashpointFlags = map[string]bool{
	"crashpoints": true, "strategy": true, "seed": true, "site": true, "hit": true,
	"errors": true, "ftlmap": true, "engine": true, "compaction": true,
	"cpuprofile": true, "memprofile": true,
}

// shardedFlags are the flags sharded mode (-shards N > 0) honours; it
// refuses any other.
var shardedFlags = map[string]bool{
	"shards": true, "tenants": true, "arrival": true, "cksched": true, "admit-rate": true,
	"queries": true, "strategy": true, "interval": true, "seed": true,
	"errors": true, "ftlmap": true, "engine": true, "compaction": true, "memtable": true,
	"cpuprofile": true, "memprofile": true,
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "checkin-sim:", err)
	os.Exit(1)
}
