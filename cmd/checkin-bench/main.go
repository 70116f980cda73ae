// Command checkin-bench regenerates the paper's evaluation tables and
// figures from the simulated Check-In system.
//
// Usage:
//
//	checkin-bench -list
//	checkin-bench -experiment fig9
//	checkin-bench -experiment all -scale 0.5 -threads 4,16,64
//
// Output is an ASCII table per experiment with a note relating the measured
// shape to the paper's reported numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/checkin-kv/checkin/internal/cli"
	"github.com/checkin-kv/checkin/internal/harness"
	"github.com/checkin-kv/checkin/internal/shard"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or comma-separated ids or 'all'")
		scale      = flag.Float64("scale", 1.0, "scales per-point query counts")
		threads    = flag.String("threads", "4,16,64,128", "comma-separated thread sweep")
		seeds      = flag.String("seeds", "", "comma-separated seeds: run each experiment once per seed (variance evidence); overrides -seed")
		parallel   = flag.Int("parallel", 0, "worker goroutines for an experiment's independent runs (0 = NumCPU, 1 = sequential; output is identical either way)")
		snapshot   = flag.String("snapshot", "on", "load-phase snapshot reuse: 'on' forks a cached post-load template for runs sharing a load configuration, 'off' re-simulates every load phase (output is byte-identical either way)")
		timing     = flag.Bool("timing", false, "print a per-phase (load / run / render) wall-clock breakdown per cell after each experiment")
		list       = flag.Bool("list", false, "list experiments and exit")
		markdown   = flag.String("markdown", "", "also append results as markdown tables to this file")
		shards     = flag.Int("shards", shard.DefaultShards, "shard count for the shardsched experiment")
		tenants    = flag.Int("tenants", shard.DefaultTenantCount, "tenant count for the shardsched experiment")
		arrival    = flag.String("arrival", shard.DefaultArrival, "open-loop arrival spec for shardsched: poisson:RATE[:flash] | diurnal:RATE:AMP:PERIOD[:flash]")
		cksched    = flag.String("cksched", "", "restrict shardsched to one cross-shard checkpoint scheduling policy: sync | staggered | global (empty = all three)")
		stack      = cli.StackFlags(" for every run")
		prof       = cli.ProfileFlags()
	)
	flag.Parse()
	defer prof.Start(fatal)()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	ths, err := parseThreads(*threads)
	if err != nil {
		usage(err)
	}
	if *snapshot != "on" && *snapshot != "off" {
		usage(fmt.Errorf("bad -snapshot %q (want on or off)", *snapshot))
	}
	base, err := stack.Config()
	if err != nil {
		usage(err)
	}
	seedList := []int64{*stack.Seed}
	if *seeds != "" {
		seedList = seedList[:0]
		for _, part := range strings.Split(*seeds, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil || v == 0 {
				usage(fmt.Errorf("bad seed %q", part))
			}
			seedList = append(seedList, v)
		}
	}

	var ids []string
	if *experiment == "all" {
		for _, e := range harness.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*experiment, ",")
	}

	for _, id := range ids {
		exp, err := harness.Lookup(strings.TrimSpace(id))
		if err != nil {
			usage(err)
		}
		for _, sd := range seedList {
			opts := harness.Opts{Scale: *scale, Threads: ths, Seed: sd, Parallelism: *parallel, Snapshots: *snapshot, Timing: *timing, Config: base, Shards: *shards, Tenants: *tenants, Arrival: *arrival, CkSched: *cksched}
			start := time.Now()
			table, _, err := harness.Run(exp, opts)
			if err != nil {
				fatal(fmt.Errorf("%s failed: %w", exp.ID, err))
			}
			if len(seedList) > 1 {
				table.Title += fmt.Sprintf(" [seed %d]", sd)
			}
			renderStart := time.Now()
			table.Render(os.Stdout)
			render := time.Since(renderStart)
			if *timing {
				printTimings(exp.ID, harness.DrainTimings(), render)
			}
			fmt.Printf("  (%s in %.1fs wall)\n", exp.ID, time.Since(start).Seconds())
			if *markdown != "" {
				f, err := os.OpenFile(*markdown, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					fatal(err)
				}
				table.RenderMarkdown(f)
				if err := f.Close(); err != nil {
					fatal(err)
				}
			}
		}
	}
}

// printTimings writes the -timing breakdown for one experiment: one line per
// executed cell (load and run phase wall-clock; memoized cells did no work),
// the table-render time, and per-phase totals.
func printTimings(id string, cells []harness.CellTiming, render time.Duration) {
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }
	w := 4 // minimum cell-name column width
	for _, c := range cells {
		if len(c.Cell) > w {
			w = len(c.Cell)
		}
	}
	fmt.Printf("  timing %s:\n", id)
	fmt.Printf("    %-*s  %10s  %10s\n", w, "cell", "load", "run")
	var load, run time.Duration
	for _, c := range cells {
		if c.Memoized {
			fmt.Printf("    %-*s  %10s  %10s  (memoized)\n", w, c.Cell, "-", "-")
			continue
		}
		load += c.Load
		run += c.Run
		fmt.Printf("    %-*s  %10s  %10s\n", w, c.Cell, ms(c.Load), ms(c.Run))
	}
	fmt.Printf("    %-*s  %10s  %10s  render %s\n", w, "total", ms(load), ms(run), ms(render))
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty thread list")
	}
	return out, nil
}

// usage reports bad command-line input and exits with status 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "checkin-bench:", err)
	os.Exit(2)
}

// fatal reports a failed run and exits with status 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "checkin-bench:", err)
	os.Exit(1)
}
