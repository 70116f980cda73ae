package core

import (
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Ops is a host engine's op machine. Each method runs one step of a query
// operation for q, from the stage q parked at (q.Stage, 0 on entry), and
// reports whether the operation finished. When it did not, q is parked:
// it waits on a future or a timer (see Query.Wait and Query.Sleep), and
// the driver calls the same method again once that fires. A method keeps
// in q whatever it needs across a park, and never looks at the future it
// parked on again after the wake-up.
type Ops interface {
	// Get reads q.Op.Key.
	Get(q *Query) bool
	// Update writes q.Size() bytes to q.Op.Key and waits for the write's
	// group commit.
	Update(q *Query) bool
	// Scan reads q.Op.ScanLen records from q.Op.Key.
	Scan(q *Query) bool
}

// tombstoneBytes is the logged size of a deletion marker.
const tombstoneBytes = 16

// Query is one query in flight through an engine's op machine (Ops): the
// operation, where the machine resumes, the park it waits in, and the
// scratch its stages carry across parks. Base.Run's closed-loop clients and
// the shard workers each own one, are woken as kernel handlers and drive it
// through Resume; Apply drives one from a simulated process. Both park
// exactly where a process calling Proc.Wait and Proc.Sleep would, so the
// two styles dispatch the same events.
type Query struct {
	// Op is the operation in flight. AdmitScan clamps its scan range.
	Op workload.Op
	// Stage is where the current Ops method resumes: 0 on entry, then
	// whatever value the method set before it parked.
	Stage int

	// part is the RMW's half in flight: 0 the Get, 1 the Update.
	part int
	// admitting is set once AdmitWrite has passed the gate, while the
	// write waits for log space.
	admitting bool

	// futs are the device commands WaitRelease waits on, next the index
	// of the first it has not waited on yet.
	futs []*sim.Future
	next int

	// The park: fut, or a sleep of sleep when fut is nil.
	fut   *sim.Future
	sleep sim.VTime

	// Scratch of the journal engine's read of a log being checkpointed:
	// its placement, and the entry while the cut may still move it.
	entry *jmtEntry
	off   int64
	n     int64
}

// Begin readies q for op.
func (q *Query) Begin(op workload.Op) {
	q.Op, q.Stage, q.part, q.admitting = op, 0, 0, false
}

// Size is the payload an Update of q logs (see payload).
func (q *Query) Size() int { return payload(q.Op) }

// payload is the bytes an Update of op logs: the op's size, or a
// tombstone's for a Delete, which rides the same write-ahead and checkpoint
// paths.
func payload(op workload.Op) int {
	if op.Kind == workload.OpDelete {
		return tombstoneBytes
	}
	return int(op.Size)
}

// step runs q's operation on h from where it parked and reports whether it
// finished. A read-modify-write is a Get followed by an Update; an insert
// is an Update of a fresh key; a Delete is an Update of a tombstone.
func (q *Query) step(h Ops) bool {
	switch q.Op.Kind {
	case workload.OpRead:
		return h.Get(q)
	case workload.OpUpdate, workload.OpInsert, workload.OpDelete:
		return h.Update(q)
	case workload.OpReadModifyWrite:
		if q.part == 0 {
			if !h.Get(q) {
				return false
			}
			q.part, q.Stage = 1, 0
		}
		return h.Update(q)
	case workload.OpScan:
		return h.Scan(q)
	}
	return true
}

// Wait parks q on f unless f is already done, and reports whether it
// parked: an op stage returns as soon as it does. The wake-up continues
// the stage after the wait, never by looking at f again — a finished
// future may be recycled by its owner.
func (q *Query) Wait(f *sim.Future) bool {
	if f.Done() {
		return false
	}
	q.fut = f
	return true
}

// Sleep parks q for d of virtual time. It always parks and returns true,
// so a stage can end with `return !q.Sleep(d)`.
func (q *Query) Sleep(d sim.VTime) bool {
	q.fut, q.sleep = nil, d
	return true
}

// Await adds a device command for WaitRelease to wait on.
func (q *Query) Await(f *sim.Future) { q.futs = append(q.futs, f) }

// Resume runs q's operation on h from where it parked and reports whether
// it finished. When it did not, q is parked and self's wake-up is armed
// exactly as Proc.Wait and Proc.Sleep arm a process's: on the future q
// waits on, or as a timer on eng; the handler calls Resume again when it
// fires.
func (q *Query) Resume(h Ops, eng *sim.Engine, self sim.Handler) bool {
	if q.step(h) {
		return true
	}
	if f := q.fut; f != nil {
		q.fut = nil
		f.OnCompleteHandler(self)
	} else {
		eng.AtHandler(eng.Now()+q.sleep, self)
	}
	return false
}

// Apply executes one workload operation against h from process p: it
// drives the op machine the kernel-handler drivers drive through Resume,
// blocking p in Proc.Wait and Proc.Sleep wherever a handler would park. It
// is the machine's process reference driver, for the verification oracles
// and tests.
func Apply(h Ops, p *sim.Proc, op workload.Op) {
	var q Query
	q.Begin(op)
	for !q.step(h) {
		if f := q.fut; f != nil {
			q.fut = nil
			p.Wait(f)
		} else {
			p.Sleep(q.sleep)
		}
	}
}
