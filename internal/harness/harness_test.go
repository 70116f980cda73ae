package harness

import (
	"fmt"
	"strings"
	"testing"
)

func tinyOpts() Opts {
	return Opts{Scale: 0.05, Threads: []int{4, 8}, Seed: 1}
}

// runID runs the registered experiment id under o and returns its table.
func runID(t testing.TB, id string, o Opts) (*Table, error) {
	t.Helper()
	exp, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := Run(exp, o)
	return tab, err
}

func TestExperimentsRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	want := []string{"table1", "fig3a", "fig3b", "fig3c", "fig8a", "fig8b",
		"lifetime", "fig9", "fig10", "fig11a", "fig11b", "fig12", "fig13a", "fig13b",
		"shardsched", "compaction", "ablation", "compare", "recovery"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].Render == nil {
			t.Errorf("experiment %s missing title or runner", id)
		}
	}
}

func TestLookup(t *testing.T) {
	e, err := Lookup("fig9")
	if err != nil || e.ID != "fig9" {
		t.Fatalf("Lookup(fig9) = %v, %v", e.ID, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestOptsDefaults(t *testing.T) {
	o := Opts{}.withDefaults()
	if o.Scale != 1 || len(o.Threads) == 0 || o.Seed == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	if o.maxThreads() != 128 {
		t.Errorf("maxThreads = %d", o.maxThreads())
	}
	if q := o.queries(10); q != 500 {
		t.Errorf("queries floor = %d, want 500", q)
	}
	if q := o.queries(100_000); q != 100_000 {
		t.Errorf("queries = %d", q)
	}
	half := Opts{Scale: 0.5}.withDefaults()
	if q := half.queries(100_000); q != 50_000 {
		t.Errorf("scaled queries = %d", q)
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "note text")
	var sb strings.Builder
	tab.RenderMarkdown(&sb)
	out := sb.String()
	for _, want := range []string{"### x: demo", "| a | b |", "| --- | --- |", "| 1 | 2 |", "> note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "long-column"}}
	tab.AddRow("1", "2")
	tab.AddRow("wide-cell", "3")
	tab.Notes = append(tab.Notes, "a note")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "long-column", "wide-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestEveryExperimentRuns regenerates each artifact at a tiny scale and
// checks structural sanity (non-empty, rectangular rows).
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tab, _, err := Run(exp, tinyOpts())
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", exp.ID)
			}
			for _, r := range tab.Rows {
				if len(r) != len(tab.Columns) {
					t.Fatalf("%s row width %d != %d columns", exp.ID, len(r), len(tab.Columns))
				}
				for _, cell := range r {
					if cell == "" {
						t.Fatalf("%s has an empty cell", exp.ID)
					}
				}
			}
		})
	}
}

// TestParallelDeterminism renders the same experiments at parallelism 1 and
// 8 and requires byte-identical output. compare covers trace replay (five
// runs sharing one recorded trace); fig11a covers the widest sweep
// (strategies x mixes x threads). The runner's memo key includes
// Parallelism precisely so this test exercises real parallel runs.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel determinism sweep in -short mode")
	}
	for _, id := range []string{"compare", "fig11a"} {
		id := id
		t.Run(id, func(t *testing.T) {
			exp, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(par int) string {
				o := tinyOpts()
				o.Parallelism = par
				tab, _, err := Run(exp, o)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				var sb strings.Builder
				tab.Render(&sb)
				return sb.String()
			}
			seq, par := render(1), render(8)
			if seq != par {
				t.Errorf("%s output differs between parallelism 1 and 8:\n--- sequential\n%s\n--- parallel\n%s", id, seq, par)
			}
			if !strings.Contains(seq, "==") || len(seq) < 100 {
				t.Errorf("%s rendered output suspiciously small (vacuous comparison?):\n%s", id, seq)
			}
		})
	}
}

func TestFig9OrderingAtModestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive ordering check in -short mode")
	}
	o := Opts{Scale: 0.3, Threads: []int{4, 32}, Seed: 1}
	tab, err := runID(t, "fig9", o)
	if err != nil {
		t.Fatal(err)
	}
	// Find zipfian rows for Baseline and Check-In, compare p99.9 (column 3).
	var base, ci string
	for _, r := range tab.Rows {
		if r[1] != "zipfian" {
			continue
		}
		switch r[0] {
		case "Baseline":
			base = r[3]
		case "Check-In":
			ci = r[3]
		}
	}
	if base == "" || ci == "" {
		t.Fatalf("missing rows in fig9 table: %+v", tab.Rows)
	}
	var bv, cv float64
	if _, err := fmt.Sscan(base, &bv); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(ci, &cv); err != nil {
		t.Fatal(err)
	}
	if cv >= bv {
		t.Errorf("Check-In p99.9 (%v) not below baseline (%v)", cv, bv)
	}
}
