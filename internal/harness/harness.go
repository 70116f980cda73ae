// Package harness regenerates every table and figure of the paper's
// evaluation (Section IV). Each experiment builds the simulated system
// through the public checkin API, runs the paper's workload for each
// configuration, and reports the same rows/series the paper plots.
//
// Absolute numbers differ from the paper (its substrate was gem5 +
// SimpleSSD on the authors' parameters); the quantities to compare are the
// shapes: which configuration wins, by roughly what factor, and where
// trends cross.
package harness

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/runner"
)

// Opts controls experiment scale. The zero value is replaced by defaults.
type Opts struct {
	// Scale multiplies per-point query counts. 1.0 is the full-size run
	// used by cmd/checkin-bench; benchmarks use smaller scales.
	Scale float64
	// Threads overrides the default thread sweep (experiments that sweep
	// threads use this list; others use its maximum).
	Threads []int
	// Seed makes runs reproducible.
	Seed int64
	// Parallelism is the number of worker goroutines executing an
	// experiment's independent runs. 0 selects runtime.NumCPU(); 1 forces
	// strictly sequential execution. Every run owns a private sim.Engine
	// and results assemble in submission order, so rendered tables are
	// byte-identical at any setting.
	Parallelism int
	// Snapshots controls the run-acceleration stack: the load-phase
	// template cache (runs whose configurations share a load fingerprint
	// fork one preconditioned snapshot instead of each re-simulating the
	// load phase) and whole-run memoization (identical config/spec cells
	// shared between experiments simulate once). "" and "on" enable it;
	// "off" forces every run to load and execute privately. Rendered
	// tables are byte-identical either way — a fork copies the exact
	// post-load state and runs are pure functions of their inputs.
	Snapshots string
	// Timing collects a per-cell wall-clock breakdown (load/run phases of
	// every executed job), retrievable with DrainTimings after an
	// experiment completes. Purely observational: experiment output is
	// byte-identical with it on or off.
	Timing bool
	// Config is the stack every run starts from (the zero value is
	// checkin.DefaultConfig()): the error profile, mapping model and host
	// engine the commands' stack flags pick. Each experiment then sets the
	// strategy, Seed, Keys and checkpoint interval, and what it sweeps;
	// experiments that compare backends explicitly (compaction) override
	// Engine per cell.
	Config checkin.Config
	// Shards and Tenants size the sharded scale-out experiment (0 =
	// shard.DefaultShards, shard.DefaultTenantCount). Only shardsched
	// consults them.
	Shards  int
	Tenants int
	// Arrival is the open-loop arrival spec for shardsched (see
	// shard.ParseArrival; "" = shard.DefaultArrival).
	Arrival string
	// CkSched restricts shardsched to one cross-shard checkpoint scheduling
	// policy ("sync", "staggered" or "global"; "" = all three).
	CkSched string
}

// snapshotsOn reports whether the template cache is enabled (the default).
func (o Opts) snapshotsOn() bool { return o.Snapshots != "off" }

func (o Opts) withDefaults() Opts {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{4, 16, 64, 128}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Opts) queries(base int64) int64 {
	q := int64(float64(base) * o.Scale)
	if q < 500 {
		q = 500
	}
	return q
}

func (o Opts) maxThreads() int {
	m := o.Threads[0]
	for _, t := range o.Threads {
		if t > m {
			m = t
		}
	}
	return m
}

// Table is one regenerated paper artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if w := utf8.RuneCountInString(c); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// RenderMarkdown writes the table as a GitHub-flavored markdown table.
func (t *Table) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "\n### %s: %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
}

// pad right-pads s to w display columns. Width is counted in runes, not
// bytes: multi-byte headers such as "µs" previously over-counted and skewed
// every column to their right.
func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Experiment is a registered paper artifact generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Opts) (*Table, error)
}

// Experiments lists every regenerable artifact in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Simulated machine configuration", Table1},
		{"fig3a", "I/O and flash-operation amplification due to checkpointing", Fig3a},
		{"fig3b", "Normalized checkpointing time vs thread count (baseline)", Fig3b},
		{"fig3c", "Query latency during checkpointing vs average (baseline)", Fig3c},
		{"fig8a", "Redundant writes vs checkpoint interval", Fig8a},
		{"fig8b", "GC invocations vs write-query count", Fig8b},
		{"lifetime", "Flash lifetime projection (Equation 1)", Lifetime},
		{"fig9", "Tail latency (99.9th / 99.99th percentile)", Fig9},
		{"fig10", "Checkpointing time vs thread count (locked)", Fig10},
		{"fig11a", "Average query throughput vs threads (workloads A/F/WO)", Fig11a},
		{"fig11b", "Average query latency vs threads (workloads A/F/WO)", Fig11b},
		{"fig12", "Sensitivity to checkpoint interval (baseline vs Check-In)", Fig12},
		{"fig13a", "Query throughput vs mapping unit size", Fig13a},
		{"fig13b", "Space overhead of Check-In vs ISC-C (record-size patterns)", Fig13b},
		{"shardsched", "Cross-shard checkpoint scheduling under multi-tenant open-loop traffic", ShardSched},
		{"compaction", "Check-In vs host-side checkpointing under LSM compaction traffic", Compaction},
		{"ablation", "Design-decision ablations beyond the paper's figures", Ablation},
		{"compare", "Strict trace-replay comparison across all five configurations", Compare},
		{"recovery", "Crash recovery and sudden-power-off recovery per configuration", Recovery},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0)
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// baseConfig is the shared starting configuration for experiment runs.
func baseConfig(o Opts, s checkin.Strategy) checkin.Config {
	cfg := o.Config
	if reflect.ValueOf(cfg).IsZero() {
		cfg = checkin.DefaultConfig()
	}
	cfg.Strategy = s
	cfg.Seed = o.Seed
	cfg.Keys = 50_000
	cfg.CheckpointInterval = 300 * time.Millisecond
	return cfg
}

// runJobs executes an experiment's independent run points on the worker
// pool. Results come back in submission order, so assembly loops can index
// them positionally; any failed run aborts the whole experiment.
//
// Runs go through the full acceleration stack unless Opts.Snapshots ==
// "off": load-phase snapshot forking plus whole-run memoization, so
// identical (config, spec) points shared between experiments — e.g. fig11a
// and fig11b render the same underlying sweep — simulate once per process.
// Memoized results carry a nil DB; experiments that inspect the post-run DB
// must use runJobsKeepDB.
func runJobs(o Opts, jobs []runner.Job) ([]runner.Result, error) {
	rs, err := runner.RunAllWith(jobs, runner.Options{
		Parallelism: o.Parallelism,
		Snapshots:   o.snapshotsOn(),
		Memo:        o.snapshotsOn(),
	})
	if o.Timing {
		recordTimings(rs)
	}
	return rs, err
}

// runJobsKeepDB is runJobs without memoization: every result keeps its DB
// for post-run inspection (recovery simulation, energy and lifetime
// accounting). Snapshot forking still applies.
func runJobsKeepDB(o Opts, jobs []runner.Job) ([]runner.Result, error) {
	rs, err := runner.RunAllWith(jobs, runner.Options{
		Parallelism: o.Parallelism,
		Snapshots:   o.snapshotsOn(),
	})
	if o.Timing {
		recordTimings(rs)
	}
	return rs, err
}

// CellTiming is the wall-clock breakdown of one experiment cell (one
// simulation run), in the order cells were submitted to the worker pool.
type CellTiming struct {
	Cell     string
	Load     time.Duration
	Run      time.Duration
	Memoized bool
}

// cellTimings buffers breakdowns across runJobs calls; an experiment may
// issue several sweeps, and sweeps may run on concurrent workers — results
// are appended per completed sweep in submission order, so drains are
// deterministic.
var cellTimings struct {
	mu   sync.Mutex
	rows []CellTiming
}

func recordTimings(rs []runner.Result) {
	cellTimings.mu.Lock()
	defer cellTimings.mu.Unlock()
	for i := range rs {
		cellTimings.rows = append(cellTimings.rows, CellTiming{
			Cell:     rs[i].Name,
			Load:     rs[i].Timing.Load,
			Run:      rs[i].Timing.Run,
			Memoized: rs[i].Timing.Memoized,
		})
	}
}

// DrainTimings returns the cell timings collected since the previous drain
// (under Opts.Timing) and clears the buffer. Callers drain once per
// experiment to attribute cells to the experiment that ran them.
func DrainTimings() []CellTiming {
	cellTimings.mu.Lock()
	defer cellTimings.mu.Unlock()
	rows := cellTimings.rows
	cellTimings.rows = nil
	return rows
}

func f2(v float64) string    { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string    { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string    { return fmt.Sprintf("%.0f", v) }
func d(v uint64) string      { return fmt.Sprintf("%d", v) }
func ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }
