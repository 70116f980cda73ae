package main

import (
	"bytes"
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
)

// measureBoth runs Baseline and Check-In at reduced scale.
func measureBoth(t *testing.T) (base, ci result) {
	t.Helper()
	var err error
	if base, err = measure(checkin.StrategyBaseline, 800); err != nil {
		t.Fatal(err)
	}
	if ci, err = measure(checkin.StrategyCheckIn, 800); err != nil {
		t.Fatal(err)
	}
	return base, ci
}

// TestRemapCheckpointAvoidsCheckpointPrograms: with file blocks on a
// block-sized mapping unit, a remap checkpoint programs no flash while a
// host checkpoint programs every dirty block again, and it takes at most a
// quarter of the host checkpoint's time.
func TestRemapCheckpointAvoidsCheckpointPrograms(t *testing.T) {
	base, ci := measureBoth(t)
	if base.m.Checkpoints() == 0 || ci.m.Checkpoints() == 0 {
		t.Fatalf("no checkpoint ran: Baseline %d, Check-In %d", base.m.Checkpoints(), ci.m.Checkpoints())
	}
	if got := ci.m.CheckpointPrograms(); got != 0 {
		t.Errorf("Check-In checkpoint programs = %d, want 0", got)
	}
	if got := base.m.CheckpointPrograms(); got == 0 {
		t.Error("Baseline checkpoint programs = 0, want > 0")
	}
	if b, c := base.m.MeanCheckpointTime(), ci.m.MeanCheckpointTime(); 4*c > b {
		t.Errorf("mean checkpoint: Check-In %v, want at most a quarter of Baseline's %v", c, b)
	}
}

// TestBlockStoreRecovers: after the write run, a host restart recovers every
// block and the device's power-loss rebuild reproduces every durable
// mapping, under both checkpoint mechanisms.
func TestBlockStoreRecovers(t *testing.T) {
	base, ci := measureBoth(t)
	for _, r := range []result{base, ci} {
		if r.diverged != 0 {
			t.Errorf("%v: %d blocks diverged after recovery", r.strategy, r.diverged)
		}
		if r.mismatches != 0 {
			t.Errorf("%v: %d SPOR mismatches", r.strategy, r.mismatches)
		}
	}
}

// TestFSJournalSmoke runs the example at reduced scale: it prints the
// verdict its predicate computes, and the claim holds.
func TestFSJournalSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 800); err != nil {
		t.Fatalf("fsjournal example failed: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"Baseline", "Check-In", "verdict: the generality claim holds"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("%q missing from report:\n%s", want, out.String())
		}
	}
}

// TestVerdictRejectsBrokenRuns: the predicate fails a run that breaks any
// of its conditions.
func TestVerdictRejectsBrokenRuns(t *testing.T) {
	base, ci := measureBoth(t)
	if err := verdict(base, ci); err != nil {
		t.Fatalf("verdict on the real runs: %v", err)
	}
	for name, broken := range map[string]func() (result, result){
		"host checkpoints as Check-In":  func() (result, result) { return base, base },
		"remap checkpoints as Baseline": func() (result, result) { return ci, ci },
		"diverged":                      func() (result, result) { b := base; b.diverged = 1; return b, ci },
		"spor mismatch":                 func() (result, result) { c := ci; c.mismatches = 1; return base, c },
	} {
		if err := verdict(broken()); err == nil {
			t.Errorf("%s: verdict accepted a broken run", name)
		}
	}
}
