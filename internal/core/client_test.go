package core

import (
	"math"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// wakeOps is an op machine whose Get sleeps HostIOOverhead — a delay-lane
// timer, like the engines' host-side sleeps — and whose Update waits on a
// future an event completes 1 ns later. Only the op machine is real: the
// Host methods a client never calls are left nil.
type wakeOps struct {
	Host
	eng *sim.Engine
	fut sim.Future
}

func (o *wakeOps) Get(q *Query) bool {
	if q.Stage == 0 {
		q.Stage = 1
		return !q.Sleep(HostIOOverhead)
	}
	return true
}

func (o *wakeOps) Update(q *Query) bool {
	if q.Stage == 0 {
		q.Stage = 1
		o.fut = sim.Future{}
		o.fut.Init(o.eng)
		o.eng.AtHandler(o.eng.Now()+1, &o.fut)
		return !q.Wait(&o.fut)
	}
	return true
}

func (o *wakeOps) Scan(q *Query) bool { return true }

// rmwForever is a replayed trace of one read-modify-write, which the
// replayer repeats once exhausted: every query parks twice, on a timer and
// on a future.
var rmwForever = &workload.Trace{Ops: []workload.Op{{Kind: workload.OpReadModifyWrite, Key: 1, Size: 100}}}

// wakeStack is a kernel with the host-overhead lane and a base whose host
// is a wakeOps.
func wakeStack() (*sim.Engine, *Base) {
	e := sim.NewEngine()
	e.DelayLane(HostIOOverhead)
	return e, &Base{eng: e, host: &wakeOps{eng: e}, metrics: NewMetrics()}
}

// startClient starts one of Run's clients on b, with an endless budget.
func startClient(b *Base) {
	c := &client{run: &clientRun{b: b, m: b.metrics, replay: workload.NewReplayer(rmwForever), remaining: math.MaxInt64}}
	b.parked++
	b.eng.AtHandler(b.eng.Now(), c)
}

// startProcClient starts a process looping over Apply, recording each
// query as a client does: the coroutine Run's clients used to be.
func startProcClient(b *Base) {
	b.eng.Go("client", func(p *sim.Proc) {
		op := rmwForever.Ops[0]
		for {
			start := p.Now()
			Apply(b.host, p, op)
			b.metrics.NoteQuery(op, p.Now()-start, false)
		}
	})
}

// queryPeriod is the virtual time one rmwForever query takes.
const queryPeriod = HostIOOverhead + 1

// TestClientWakeAllocs guards the closed-loop client's steady state: a
// query parked on a delay-lane timer and on a future, resumed by each, and
// the next query begun and recorded, allocate nothing.
func TestClientWakeAllocs(t *testing.T) {
	e, b := wakeStack()
	startClient(b)
	e.RunUntil(e.Now() + 4*queryPeriod)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + queryPeriod) }); n != 0 {
		t.Errorf("a client query (two parks and wake-ups) allocates %.2f, want 0", n)
	}
	if q := b.metrics.Queries; q < 100 {
		t.Errorf("%d queries recorded, want at least 100", q)
	}
}

// BenchmarkClientWake measures one closed-loop query of two parks — a
// delay-lane sleep and a future completed by an event — driven by a
// kernel handler (Run's clients) and by a process calling Apply.
func BenchmarkClientWake(b *testing.B) {
	for _, c := range []struct {
		name  string
		start func(*Base)
	}{{"handler", startClient}, {"proc", startProcClient}} {
		b.Run(c.name, func(b *testing.B) {
			e, base := wakeStack()
			c.start(base)
			e.RunUntil(e.Now() + queryPeriod)
			b.ReportAllocs()
			b.ResetTimer()
			e.RunUntil(e.Now() + sim.VTime(b.N)*queryPeriod)
		})
	}
}
