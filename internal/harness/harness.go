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

// Experiment is a registered paper artifact generator. It declares its
// run points as cells and renders its table from their Metrics; Run drives
// both.
type Experiment struct {
	ID    string
	Title string
	// Cells declares the runs (nil for an experiment that runs none
	// through the runner).
	Cells func(Opts) ([]Cell, error)
	// Render builds the table from the cells, their Metrics filled in.
	Render func(Opts, []Cell) (*Table, error)
	// keepDB keeps each cell's post-run DB for Render (and turns off the
	// run memo, whose shared results carry no DB).
	keepDB bool
}

// Role says what a cell's row claims.
type Role int

const (
	// Point is one point of a sweep.
	Point Role = iota
	// Reference is a row that lever rows are compared with.
	Reference
	// Lever is a row that changes one design lever of its Ref cell.
	Lever
)

// Cell is one run point of an experiment: a config, a measured workload
// and what its row claims. Run fills Metrics (and DB under keepDB).
type Cell struct {
	Name   string
	Config checkin.Config
	Spec   checkin.RunSpec
	Role   Role
	// Ref names a Lever cell's Reference cell.
	Ref string
	// Ckpt marks a cell whose claim depends on checkpoints completing
	// inside its measured window.
	Ckpt bool

	Metrics *checkin.Metrics
	DB      *checkin.DB
}

// Experiments lists every regenerable artifact in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Simulated machine configuration", Render: renderTable1},
		{ID: "fig3a", Title: "I/O and flash-operation amplification due to checkpointing", Cells: fig3aCells, Render: renderFig3a},
		{ID: "fig3b", Title: "Normalized checkpointing time vs thread count (baseline)", Cells: fig3bCells, Render: renderFig3b},
		{ID: "fig3c", Title: "Query latency during checkpointing vs average (baseline)", Cells: fig3cCells, Render: renderFig3c},
		{ID: "fig8a", Title: "Redundant writes vs checkpoint interval", Cells: fig8aCells, Render: renderFig8a},
		{ID: "fig8b", Title: "GC invocations vs write-query count", Cells: fig8bCells, Render: renderFig8b},
		{ID: "lifetime", Title: "Flash lifetime projection (Equation 1)", Cells: lifetimeCells, Render: renderLifetime},
		{ID: "fig9", Title: "Tail latency (99.9th / 99.99th percentile)", Cells: fig9Cells, Render: renderFig9},
		{ID: "fig10", Title: "Checkpointing time vs thread count (locked)", Cells: fig10Cells, Render: renderFig10},
		{ID: "fig11a", Title: "Average query throughput vs threads (workloads A/F/WO)", Cells: fig11Cells, Render: renderFig11a},
		{ID: "fig11b", Title: "Average query latency vs threads (workloads A/F/WO)", Cells: fig11Cells, Render: renderFig11b},
		{ID: "fig12", Title: "Sensitivity to checkpoint interval (baseline vs Check-In)", Cells: fig12Cells, Render: renderFig12},
		{ID: "fig13a", Title: "Query throughput vs mapping unit size", Cells: fig13aCells, Render: renderFig13a},
		{ID: "fig13b", Title: "Space overhead of Check-In vs ISC-C (record-size patterns)", Cells: fig13bCells, Render: renderFig13b},
		{ID: "shardsched", Title: "Cross-shard checkpoint scheduling under multi-tenant open-loop traffic", Render: renderShardSched},
		{ID: "compaction", Title: "Check-In vs host-side checkpointing under LSM compaction traffic", Cells: compactionCells, Render: renderCompaction, keepDB: true},
		{ID: "ablation", Title: "Design-decision ablations beyond the paper's figures", Cells: ablationCells, Render: renderAblation},
		{ID: "compare", Title: "Strict trace-replay comparison across all five configurations", Cells: compareCells, Render: renderCompare},
		{ID: "recovery", Title: "Crash recovery and sudden-power-off recovery per configuration", Cells: recoveryCells, Render: renderRecovery, keepDB: true},
	}
}

// Run regenerates one experiment: it applies the Opts defaults, runs every
// cell in one batch on the worker pool, fills in each cell's Metrics and
// renders the table. It returns the table and the cells.
//
// Runs go through the full acceleration stack unless Opts.Snapshots ==
// "off": load-phase snapshot forking plus whole-run memoization, so
// identical (config, spec) cells shared between experiments — fig11a and
// fig11b declare the same sweep — simulate once per process. Results come
// back in submission order and any failed run aborts the experiment.
func Run(exp Experiment, o Opts) (*Table, []Cell, error) {
	o = o.withDefaults()
	var cells []Cell
	if exp.Cells != nil {
		var err error
		if cells, err = exp.Cells(o); err != nil {
			return nil, nil, err
		}
		jobs := make([]runner.Job, len(cells))
		for i, c := range cells {
			jobs[i] = runner.Job{Name: c.Name, Config: c.Config, Spec: c.Spec}
		}
		rs, err := runner.RunAllWith(jobs, runner.Options{
			Parallelism: o.Parallelism,
			Snapshots:   o.snapshotsOn(),
			Memo:        o.snapshotsOn() && !exp.keepDB,
		})
		if o.Timing {
			recordTimings(rs)
		}
		if err != nil {
			return nil, nil, err
		}
		for i := range cells {
			cells[i].Metrics = rs[i].Metrics
			if exp.keepDB {
				cells[i].DB = rs[i].DB
			}
		}
	}
	t, err := exp.Render(o, cells)
	if err != nil {
		return nil, nil, err
	}
	return t, cells, nil
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

// CellTiming is the wall-clock breakdown of one experiment cell (one
// simulation run), in the order cells were submitted to the worker pool.
type CellTiming struct {
	Cell     string
	Load     time.Duration
	Run      time.Duration
	Memoized bool
}

// cellTimings buffers breakdowns across Run calls; results are appended per
// completed batch in submission order, so drains are deterministic.
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
