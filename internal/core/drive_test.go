package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// recordingOps logs every call Apply makes.
type recordingOps struct{ calls []string }

func (r *recordingOps) Get(_ *sim.Proc, key int64) {
	r.calls = append(r.calls, fmt.Sprintf("get %d", key))
}

func (r *recordingOps) Update(_ *sim.Proc, key int64, size int) {
	r.calls = append(r.calls, fmt.Sprintf("update %d %d", key, size))
}

func (r *recordingOps) Scan(_ *sim.Proc, key int64, n int) {
	r.calls = append(r.calls, fmt.Sprintf("scan %d %d", key, n))
}

func (r *recordingOps) Delete(_ *sim.Proc, key int64) {
	r.calls = append(r.calls, fmt.Sprintf("delete %d", key))
}

// TestApplyDispatch pins the one operation dispatch every driver shares:
// each workload.OpKind maps to a fixed call sequence on the host.
func TestApplyDispatch(t *testing.T) {
	cases := []struct {
		op   workload.Op
		want []string
	}{
		{workload.Op{Kind: workload.OpRead, Key: 7}, []string{"get 7"}},
		{workload.Op{Kind: workload.OpUpdate, Key: 7, Size: 300}, []string{"update 7 300"}},
		{workload.Op{Kind: workload.OpInsert, Key: 9, Size: 128}, []string{"update 9 128"}},
		{workload.Op{Kind: workload.OpReadModifyWrite, Key: 3, Size: 512}, []string{"get 3", "update 3 512"}},
		{workload.Op{Kind: workload.OpScan, Key: 5, ScanLen: 40}, []string{"scan 5 40"}},
		{workload.Op{Kind: workload.OpDelete, Key: 11}, []string{"delete 11"}},
	}
	covered := map[workload.OpKind]bool{}
	for _, tc := range cases {
		var r recordingOps
		Apply(&r, nil, tc.op)
		if !slices.Equal(r.calls, tc.want) {
			t.Errorf("%v: calls %q, want %q", tc.op.Kind, r.calls, tc.want)
		}
		covered[tc.op.Kind] = true
	}
	for k := workload.OpRead; k <= workload.OpDelete; k++ {
		if !covered[k] {
			t.Errorf("op kind %v has no dispatch case", k)
		}
	}
}
