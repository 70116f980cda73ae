package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/workload"
)

// dispatchLog is a shard's host engine with a recorder in front of its op
// machine: it logs every op a worker dequeues — the first Ops call a query
// makes after its previous op finished — and forwards every call, so the
// shard runs exactly as without it.
type dispatchLog struct {
	checkin.HostEngine
	s        *shardRunner
	events   uint64              // events the shard's kernel had run before the run
	labels   map[*core.Query]int // worker → order of its first dequeue
	inFlight map[*core.Query]bool
	out      strings.Builder
}

func (d *dispatchLog) Get(q *core.Query) bool {
	d.begin(q)
	done := d.HostEngine.Get(q)
	// An RMW's read is its first half: the same step goes on to the update.
	d.end(q, done && q.Op.Kind != workload.OpReadModifyWrite)
	return done
}

func (d *dispatchLog) Update(q *core.Query) bool {
	d.begin(q)
	done := d.HostEngine.Update(q)
	d.end(q, done)
	return done
}

func (d *dispatchLog) Scan(q *core.Query) bool {
	d.begin(q)
	done := d.HostEngine.Scan(q)
	d.end(q, done)
	return done
}

// begin logs q's op when q starts it: shard, worker, the op's arrival and
// the dequeue instant, both on the shard's clock, and the dequeue's place
// in the kernel's dispatch order (events run since the run began).
func (d *dispatchLog) begin(q *core.Query) {
	if d.inFlight[q] {
		return
	}
	d.inFlight[q] = true
	label, ok := d.labels[q]
	if !ok {
		label = len(d.labels)
		d.labels[q] = label
	}
	// Query is worker's first field (the test checks), so a shard's
	// queries are its workers.
	w := (*worker)(unsafe.Pointer(q))
	fmt.Fprintf(&d.out, "shard %d worker %d arrival %d now %d event %d\n",
		d.s.id, label, w.po.at-d.s.base, d.s.eng.Now()-d.s.base, d.s.eng.Executed()-d.events)
}

func (d *dispatchLog) end(q *core.Query, done bool) {
	if done {
		delete(d.inFlight, q)
	}
}

const dispatchGoldenPath = "testdata/dispatch_global_golden.txt"

// TestGlobalPauseDispatchOrder pins which worker takes which op, when, and
// at which point of the kernel's dispatch order, on a small two-shard run
// under the global policy, whose pausing cuts park every worker that holds
// a permit on the resume future. The reports miss a reordered wake-up, and
// so would a log of instants alone: the paused workers wake at the
// checkpoint's completion instant however the wake-up is routed. The
// dispatch index does not miss it: routing the wake-up through one more
// same-instant event shifts it. Workers are labelled in the order
// they first dequeue. An intentional change regenerates the file with:
//
//	CHECKIN_UPDATE_GOLDEN=1 go test ./internal/shard -run TestGlobalPauseDispatchOrder
func TestGlobalPauseDispatchOrder(t *testing.T) {
	if unsafe.Offsetof(worker{}.Query) != 0 {
		t.Fatal("worker no longer starts with its core.Query; the recorder cannot find a query's worker")
	}
	cfg := testConfig(2, SchedGlobal)
	cfg.TotalOps = 600
	cfg.Base.CheckpointInterval = time.Millisecond
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]*dispatchLog, len(s.shards))
	for i, r := range s.shards {
		logs[i] = &dispatchLog{HostEngine: r.en, s: r, events: r.eng.Executed(),
			labels: map[*core.Query]int{}, inFlight: map[*core.Query]bool{}}
		r.en = logs[i]
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i, d := range logs {
		sb.WriteString(d.out.String())
		if n := uint64(strings.Count(d.out.String(), "\n")); n != d.s.m.Queries {
			t.Fatalf("shard %d: logged %d dequeues, finished %d ops", i, n, d.s.m.Queries)
		}
		if rep.ShardRows[i].Checkpoints < 2 {
			t.Fatalf("shard %d paused for %d cuts, want several", i, rep.ShardRows[i].Checkpoints)
		}
	}
	compareGolden(t, dispatchGoldenPath, sb.String(), "TestGlobalPauseDispatchOrder")
}
