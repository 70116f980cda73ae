package checkin_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
)

// TestRecordWorkloadPinned: every field of every op of five recorded
// streams — YCSB-A over zipfian keys, write-only over uniform keys, YCSB-E
// scans, YCSB-F read-modify-writes and a mixed-size pattern — matches a
// digest recorded before workload.Op was narrowed to 16 bytes, so the
// narrowing changed no value and no RNG draw.
func TestRecordWorkloadPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		sizer   checkin.Sizer
		mix     checkin.Mix
		zipfian bool
		sum     uint64
	}{
		{"A-zipf", checkin.FixedRecords(1024), checkin.WorkloadA, true, 0xdedf012e0040796},
		{"WO-uniform", checkin.FixedRecords(4096), checkin.WorkloadWO, false, 0x3f9ec841610860ad},
		{"E-scan", checkin.FixedRecords(512), checkin.WorkloadE, true, 0x1eb6f3884269b437},
		{"F-rmw", checkin.FixedRecords(2048), checkin.WorkloadF, false, 0xfcaab3e4f95f3448},
		{"A-P4-mix", checkin.PatternP4, checkin.WorkloadA, true, 0x9a3daa29ab22a0b8},
	} {
		tr, err := checkin.RecordWorkload(20_000, c.sizer, c.mix, c.zipfian, 20_000, 11)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, op := range tr.Ops {
			fmt.Fprintf(h, "%d,%d,%d,%d;", uint8(op.Kind), op.Key, op.Size, op.ScanLen)
		}
		if sum := h.Sum64(); sum != c.sum {
			t.Errorf("%s: digest %#x, want %#x", c.name, sum, c.sum)
		}
	}
}

// TestRecordWorkloadSizerBounds: RecordWorkload refuses a sizer giving a
// record size an op cannot hold, below 1 byte or above math.MaxInt32,
// instead of truncating it, and accepts the bounds themselves.
func TestRecordWorkloadSizerBounds(t *testing.T) {
	for _, c := range []struct {
		sizer checkin.Sizer
		ok    bool
	}{
		{checkin.FixedRecords(1), true},
		{checkin.FixedRecords(math.MaxInt32), true},
		{checkin.FixedRecords(0), false},
		{checkin.FixedRecords(math.MaxInt32 + 1), false},
		{checkin.MixedRecords("m", []int{512, -4}, []int{1, 1}), false},
	} {
		_, err := checkin.RecordWorkload(100, c.sizer, checkin.WorkloadA, false, 10, 1)
		if c.ok != (err == nil) || err != nil && !strings.Contains(err.Error(), "outside") {
			t.Errorf("sizer %s: err %v, want ok=%v", c.sizer.Name(), err, c.ok)
		}
	}
}
