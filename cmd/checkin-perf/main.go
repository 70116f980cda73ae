// Command checkin-perf is the repository's benchmark: one steady-state
// measurement of five workloads that reports both clocks of the system —
// virtual time (what the simulated key-value store does) and wall time (how
// fast the simulator runs) — end to end and layer by layer.
//
// A run of one workload repeats passes until the measured windows add up
// to -seconds (at least three passes). A pass builds the stack (Open, Load,
// warm-up) and measures one window; every pass replays identical inputs
// generated from -seed, so the virtual metrics of all passes must agree
// exactly. With -trace 1 a final traced pass profiles CPU and allocations
// and the run reports per-layer metrics. Correctness checks run after the
// first window, outside its timer.
//
// Usage, from the repository root:
//
//	bash cmd/checkin-perf/run.sh [-workload NAME|all] [-seed N] [-seconds S]
//	    [-trace 0|1] [-scale F] [-json out.json] [-outdir DIR]
//	bash cmd/checkin-perf/run.sh -compare BASE.json[,...] CHANGE.json[,...] [...]
//
// Every metric prints as "workload metric value unit"; the last line of a
// single-workload run is a JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1). The exit status is non-zero
// when a correctness check fails.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// minPasses is the fewest passes a run makes, so that set-up time and the
// wall-clock metrics are medians of at least three.
const minPasses = 3

// maxPasses bounds a run whose windows are much shorter than -seconds.
const maxPasses = 25

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	jsonPath string
	outdir   string
}

// result is one workload run as the -json file records it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Scale     float64           `json:"scale"`
	Passes    int               `json:"passes"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Info      []string          `json:"info,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is the -json file: one or more runs.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("checkin-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var compare bool
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all to run each in its own child process")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input (1 to 1e12)")
	fs.Float64Var(&o.seconds, "seconds", 5, "wall seconds of measured windows per workload; passes repeat until reached")
	fs.IntVar(&traceFlag, "trace", 1, "1: add a traced pass and report per-layer metrics; 0: end-to-end metrics only")
	fs.Float64Var(&o.scale, "scale", 1, "multiply every op count")
	fs.StringVar(&o.jsonPath, "json", "", "write every metric of the run to this file")
	fs.StringVar(&o.outdir, "outdir", "", "write span traces (Chrome trace-event JSON) and pprof profiles to this directory")
	fs.BoolVar(&compare, "compare", false, "compare result files instead of running: BASE[,BASE...] CHANGE[,CHANGE...] [...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if err := compareCmd(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "checkin-perf:", err)
			return 2
		}
		return 0
	}
	o.trace = traceFlag == 1
	switch {
	case fs.NArg() > 0:
		return usage(stderr, "unexpected arguments %q", fs.Args())
	case traceFlag != 0 && traceFlag != 1:
		return usage(stderr, "-trace must be 0 or 1")
	case o.seed < 1 || o.seed > 1e12:
		return usage(stderr, "-seed must be in [1, 1e12]")
	case !(o.scale > 0 && o.scale <= 100):
		return usage(stderr, "-scale must be in (0, 100]")
	case !(o.seconds >= 0 && o.seconds <= 3600):
		return usage(stderr, "-seconds must be in [0, 3600]")
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return usage(stderr, "%v", err)
	}
	if o.trace {
		// Sample allocations finely enough to attribute them per layer.
		runtime.MemProfileRate = 64 << 10
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "checkin-perf:", err)
		return 1
	}
	printResult(stdout, res)
	if o.jsonPath != "" {
		if err := writeResults(o.jsonPath, []*result{res}); err != nil {
			fmt.Fprintln(stderr, "checkin-perf:", err)
			return 1
		}
	}
	line, err := summaryLine(res, o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "checkin-perf:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		fmt.Fprintf(stderr, "checkin-perf: %s: %s\n", res.Workload, strings.Join(res.Failures, "; "))
		return 1
	}
	return 0
}

func usage(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "checkin-perf: "+format+"\n", args...)
	return 2
}

// runWorkload runs one workload: untraced passes until the measured windows
// reach o.seconds, then the traced pass when o.trace is set.
func runWorkload(w *workload, o options) (*result, error) {
	log := &spanLog{}
	root := log.begin(w.name, 0)
	res := &result{Workload: w.name, Seed: o.seed, Scale: o.scale}
	var runPass func(passOpts) (*pass, error)
	if w.openLoop() {
		cfg, err := shardConfig(o.seed, scaled(w.window, o.scale))
		if err != nil {
			return nil, err
		}
		runPass = func(po passOpts) (*pass, error) { return shardPass(cfg, po) }
	} else {
		cfg := w.config(o.seed)
		id := log.begin("inputs", root)
		in, err := w.inputs(cfg, o.seed, o.scale)
		log.end(id)
		if err != nil {
			return nil, err
		}
		opBytes := int(unsafe.Sizeof(in.window.Ops[0]))
		res.Info = append(res.Info, fmt.Sprintf("trace buffer: %d ops x %d B = %.1f MiB (inside peak_rss_mib)",
			in.ops, opBytes, float64(in.ops*opBytes)/(1<<20)))
		runPass = func(po passOpts) (*pass, error) { return closedPass(cfg, in, po) }
	}
	onePass := func(traced bool, n int) (*pass, error) {
		name := fmt.Sprintf("pass %d", n)
		if traced {
			name = "traced pass"
		}
		id := log.begin(name, root)
		p, err := runPass(passOpts{traced: traced, verify: n == 1, log: log, parent: id})
		log.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", w.name, name, err)
		}
		return p, nil
	}

	var passes []*pass
	var measured time.Duration
	for len(passes) < minPasses || measured.Seconds() < o.seconds && len(passes) < maxPasses {
		p, err := onePass(false, len(passes)+1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		measured += p.run
	}
	rss := peakRSSMiB()
	var traced *pass
	if o.trace {
		var err error
		if traced, err = onePass(true, len(passes)+1); err != nil {
			return nil, err
		}
	}
	log.end(root)

	first := passes[0]
	res.Passes = len(passes)
	res.Info = append(res.Info, first.info...)
	res.Failures = append(res.Failures, first.failures...)
	all := slices.Clip(passes)
	if traced != nil {
		all = append(all, traced)
	}
	for i, p := range all {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if d := diffVirtual(first.virt, p.virt); d != "" {
			which := fmt.Sprintf("pass %d", i+1)
			if p == traced {
				which = "the traced pass"
			}
			res.Failures = append(res.Failures, fmt.Sprintf("determinism: %s disagrees with pass 1 on %s", which, d))
		}
	}
	res.Correct = len(res.Failures) == 0
	res.Metrics = map[string]metric{}
	for name, v := range runMetrics(passes, traced, rss) {
		d, _ := findDef(name)
		res.Metrics[name] = metric{Value: v, Unit: d.Unit}
	}
	if o.outdir != "" {
		if err := writeOutdir(o, w.name, log, traced); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeOutdir writes the run's spans and, for a traced run, its profiles.
func writeOutdir(o options, name string, log *spanLog, traced *pass) error {
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.outdir, fmt.Sprintf("%s-seed%d", name, o.seed))
	if err := log.writeChrome(base+".trace.json", name); err != nil {
		return err
	}
	if traced == nil {
		return nil
	}
	if err := os.WriteFile(base+".cpu.pprof", traced.cpuProf, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".allocs.pprof", traced.heapProf, 0o644)
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printResult prints every metric as "workload metric value unit", with the
// run's sample counts and sizes as comment lines.
func printResult(w io.Writer, res *result) {
	for _, s := range res.Info {
		fmt.Fprintf(w, "# %s %s\n", res.Workload, s)
	}
	for _, name := range orderedNames(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, name, formatValue(m.Value), m.Unit)
	}
	fmt.Fprintf(w, "# %s passes %d, attempted %d, failed %d, correct %v\n",
		res.Workload, res.Passes, res.Attempted, res.Failed, res.Correct)
}

// summaryLine is the run's final output line: the end-to-end metrics, or
// with tracing the per-layer ones.
func summaryLine(res *result, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		metrics[d.Name] = m
	}
	b, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(b), err
}

func writeResults(path string, runs []*result) error {
	b, err := json.MarshalIndent(resultFile{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// runAll runs every workload in its own child process, one after another,
// so that each starts from a fresh heap and reports its own peak RSS.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "checkin-perf:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "checkin-perf-")
	if err != nil {
		fmt.Fprintln(stderr, "checkin-perf:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var runs []*result
	var failed []string
	for _, w := range workloads {
		path := filepath.Join(tmp, w.name+".json")
		traceArg := "0"
		if o.trace {
			traceArg = "1"
		}
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", formatValue(o.seconds), "-trace", traceArg,
			"-scale", formatValue(o.scale), "-json", path}
		if o.outdir != "" {
			args = append(args, "-outdir", o.outdir)
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		// Pass the child's metric lines through; its last line is the
		// JSON summary, which the merged -json file replaces.
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		if len(lines) > 0 && strings.HasPrefix(lines[len(lines)-1], "{") {
			lines = lines[:len(lines)-1]
		}
		if len(lines) > 0 && lines[0] != "" {
			fmt.Fprintln(stdout, strings.Join(lines, "\n"))
		}
		child, err := readResults(path)
		var exitErr *exec.ExitError
		switch {
		case runErr != nil && !errors.As(runErr, &exitErr):
			fmt.Fprintf(stderr, "checkin-perf: %s: %v\n", w.name, runErr)
			failed = append(failed, w.name)
		case err != nil:
			fmt.Fprintf(stderr, "checkin-perf: %s: no result: %v\n", w.name, err)
			failed = append(failed, w.name)
		default:
			runs = append(runs, child...)
			if runErr != nil {
				failed = append(failed, w.name)
			}
		}
	}
	if o.jsonPath != "" {
		if err := writeResults(o.jsonPath, runs); err != nil {
			fmt.Fprintln(stderr, "checkin-perf:", err)
			return 1
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(stdout, "checkin-perf: FAIL: %s\n", strings.Join(failed, ", "))
		return 1
	}
	fmt.Fprintf(stdout, "checkin-perf: all %d workloads passed every check\n", len(workloads))
	return 0
}
