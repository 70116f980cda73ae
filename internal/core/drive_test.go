package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// update and get run one Update or Get of key through Apply from p.
func update(h Ops, p *sim.Proc, key int64, size int32) {
	Apply(h, p, workload.Op{Kind: workload.OpUpdate, Key: key, Size: size})
}

func get(h Ops, p *sim.Proc, key int64) {
	Apply(h, p, workload.Op{Kind: workload.OpRead, Key: key})
}

// recordingOps is an op machine that logs every call it finishes. Each
// call first parks its query once, for a 1 ns sleep, so the log also shows
// that the driver resumes the parked call rather than the next one.
type recordingOps struct {
	calls []string
	parks int
}

func (r *recordingOps) finish(q *Query, call string) bool {
	if q.Stage == 0 {
		q.Stage = 1
		r.parks++
		return !q.Sleep(1)
	}
	r.calls = append(r.calls, call)
	return true
}

func (r *recordingOps) Get(q *Query) bool {
	return r.finish(q, fmt.Sprintf("get %d", q.Op.Key))
}

func (r *recordingOps) Update(q *Query) bool {
	return r.finish(q, fmt.Sprintf("update %d %d", q.Op.Key, q.Size()))
}

func (r *recordingOps) Scan(q *Query) bool {
	return r.finish(q, fmt.Sprintf("scan %d %d", q.Op.Key, q.Op.ScanLen))
}

// TestApplyDispatch pins the one operation dispatch every driver shares:
// each workload.OpKind maps to a fixed call sequence on the op machine,
// and Apply resumes a parked call where it stopped.
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
		{workload.Op{Kind: workload.OpDelete, Key: 11}, []string{"update 11 16"}},
	}
	covered := map[workload.OpKind]bool{}
	for _, tc := range cases {
		var r recordingOps
		e := sim.NewEngine()
		var end sim.VTime
		runProc(e, func(p *sim.Proc) {
			Apply(&r, p, tc.op)
			end = p.Now()
		})
		if !slices.Equal(r.calls, tc.want) {
			t.Errorf("%v: calls %q, want %q", tc.op.Kind, r.calls, tc.want)
		}
		if r.parks != len(tc.want) || end != sim.VTime(len(tc.want)) {
			t.Errorf("%v: %d parks ending at %v, want %d", tc.op.Kind, r.parks, end, len(tc.want))
		}
		covered[tc.op.Kind] = true
	}
	for k := workload.OpRead; k <= workload.OpDelete; k++ {
		if !covered[k] {
			t.Errorf("op kind %v has no dispatch case", k)
		}
	}
}
