package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/check"
	"github.com/checkin-kv/checkin/internal/inject"
)

// TestMain runs the command itself when re-executed by runSim.
func TestMain(m *testing.M) {
	if os.Getenv("CHECKIN_SIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs checkin-sim with args in a child process and returns its exit
// code, stdout and stderr.
func runSim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CHECKIN_SIM_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if exit := (*exec.ExitError)(nil); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, stdout.String(), stderr.String()
}

// TestPrintConfig: -print-config prints the configuration Open resolves,
// and fails with Open's error when that configuration is invalid.
func TestPrintConfig(t *testing.T) {
	code, out, errOut := runSim(t, "-print-config", "-strategy=Check-In")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"MappingUnit 512", "GCPolicy greedy", "Records default-small"} {
		if !strings.Contains(strings.Join(strings.Fields(out), " "), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	code, out, errOut = runSim(t, "-print-config", "-ftlmap=bogus")
	if code != 1 || out != "" || !strings.Contains(errOut, `unknown FTLMap "bogus"`) {
		t.Errorf("-ftlmap=bogus: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

// TestCrashpointsRefusesUnhonouredFlags: -crashpoints exits 2 naming every
// flag it would ignore, and runs with the flags it honours.
func TestCrashpointsRefusesUnhonouredFlags(t *testing.T) {
	code, out, errOut := runSim(t, "-crashpoints", "-memtable=100000", "-keys=10", "-unit=4096")
	if code != 2 || out != "" || !strings.Contains(errOut, "does not take -keys -memtable -unit") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	code, out, errOut = runSim(t, "-crashpoints", "-strategy=Check-In", "-seed=2",
		"-site=journal-commit", "-hit=1", "-errors=off", "-ftlmap=dram", "-engine=journal", "-compaction=leveled")
	if code != 0 || !strings.HasSuffix(strings.TrimSpace(out), ": ok") {
		t.Errorf("honoured flags: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

// TestCrashpointsReplaysReproLine: the repro line of a crash run on a
// stack that sets all four stack flags replays under -crashpoints and ends
// exactly as the run did.
func TestCrashpointsReplaysReproLine(t *testing.T) {
	opts := check.Stack{Engine: "lsm", Compaction: "tiered", FTLMap: "dftl-basic", Errors: "heavy"}.Schedule()
	tr, err := check.NewTrace(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := check.RunCrash(checkin.StrategyISCC, 3, inject.SiteTransFlush, 2, tr, opts)
	if !want.Fired || want.Err != nil {
		t.Fatalf("crash run: %s", want)
	}
	code, out, errOut := runSim(t, strings.Fields(want.Repro())[1:]...)
	if code != 0 || strings.TrimSpace(out) != want.String() {
		t.Errorf("%s: exit %d, stdout %q, stderr %q; want %q", want.Repro(), code, out, errOut, want.String())
	}
}

// TestShardedRefusesUnhonouredFlags: sharded mode exits 2 naming every
// single-stack flag it would ignore, and runs with the flags it honours. A
// negative shard count exits 2 instead of running single-stack mode.
func TestShardedRefusesUnhonouredFlags(t *testing.T) {
	code, out, errOut := runSim(t, "-shards=-1", "-queries=100")
	if code != 2 || out != "" || !strings.Contains(errOut, "-shards -1 must be >= 0") {
		t.Errorf("-shards=-1: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	code, out, errOut = runSim(t, "-shards", "2", "-print-config", "-recover", "-keys", "10")
	if code != 2 || out != "" || !strings.Contains(errOut, "-shards does not take -keys -print-config -recover") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	code, out, errOut = runSim(t, "-shards=2", "-tenants=2", "-arrival=poisson:100000", "-cksched=staggered",
		"-admit-rate=90000", "-queries=2000", "-strategy=Check-In", "-interval=5ms", "-seed=3",
		"-errors=off", "-ftlmap=dram", "-engine=journal", "-compaction=leveled", "-memtable=0")
	if code != 0 || !strings.HasPrefix(out, "sharded run: 2 shards") || !strings.Contains(out, "offered 2000") {
		t.Errorf("honoured flags: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}
