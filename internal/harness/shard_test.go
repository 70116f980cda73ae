package harness

import (
	"fmt"
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/shard"
)

// TestShardSchedTable: the experiment renders one row per strategy x policy
// x tenant, honors the CkSched restriction, and reproduces byte-identically.
func TestShardSchedTable(t *testing.T) {
	o := Opts{Scale: 0.02, Seed: 1, Shards: 2, Tenants: 2, CkSched: "sync"}
	tbl, err := runID(t, "shardsched", o)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(checkin.Strategies) * 1 * o.Tenants; len(tbl.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(tbl.Rows), want)
	}
	for _, row := range tbl.Rows {
		if row[1] != "sync" {
			t.Fatalf("CkSched restriction leaked: row policy %q", row[1])
		}
	}
	var a, b strings.Builder
	tbl.Render(&a)
	tbl2, err := runID(t, "shardsched", o)
	if err != nil {
		t.Fatal(err)
	}
	tbl2.Render(&b)
	if a.String() != b.String() {
		t.Fatal("shardsched table not reproducible across identical runs")
	}
}

// TestShardSchedBadSpecs: invalid arrival and policy specs surface as
// errors, not panics.
func TestShardSchedBadSpecs(t *testing.T) {
	if _, err := runID(t, "shardsched", Opts{Scale: 0.02, Arrival: "bursty:1000"}); err == nil {
		t.Error("bad arrival spec accepted")
	}
	if _, err := runID(t, "shardsched", Opts{Scale: 0.02, CkSched: "roundrobin"}); err == nil {
		t.Error("bad cksched accepted")
	}
	if _, err := runID(t, "shardsched", Opts{Scale: 0.02, Tenants: -1}); err == nil {
		t.Error("negative tenant count accepted")
	}
}

// TestShardSchedDefaults: zero shard, tenant and arrival settings run the
// defaults internal/shard names (the values checkin-bench's flags show),
// and the note reports them.
func TestShardSchedDefaults(t *testing.T) {
	render := func(o Opts) (*Table, string) {
		t.Helper()
		tbl, err := runID(t, "shardsched", o)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		tbl.Render(&sb)
		return tbl, sb.String()
	}
	zero, zeroOut := render(Opts{Scale: 0.02, Seed: 1, CkSched: "sync"})
	_, namedOut := render(Opts{Scale: 0.02, Seed: 1, CkSched: "sync",
		Shards: shard.DefaultShards, Tenants: shard.DefaultTenantCount, Arrival: shard.DefaultArrival})
	if zeroOut != namedOut {
		t.Errorf("zero settings differ from the named defaults:\n--- zero\n%s\n--- named\n%s", zeroOut, namedOut)
	}
	if want := len(checkin.Strategies) * shard.DefaultTenantCount; len(zero.Rows) != want {
		t.Errorf("got %d rows, want %d", len(zero.Rows), want)
	}
	want := fmt.Sprintf("%d shards x %d tenants, arrival %s,", shard.DefaultShards, shard.DefaultTenantCount, shard.DefaultArrival)
	if !strings.Contains(zeroOut, want) {
		t.Errorf("note lacks %q:\n%s", want, zeroOut)
	}
}
