// Per-channel event domains: the parallel half of the DES kernel.
//
// A flash operation's cost is closed-form arithmetic over two FIFO busy
// horizons (its die and its channel bus), and dies map many-to-one onto
// channels — so the resource graph partitions cleanly by channel. When
// domains are enabled, command *submission* stays on the main sequential
// loop (address checks, block lifecycle, fault sampling and counters are all
// observed synchronously by the FTL), while the timing arithmetic — the
// Reserve calls that walk the die/channel horizons forward and fix each
// command's completion instant — is deferred onto the command's channel
// domain. Domains replay their queues independently, in submission order,
// and the results merge back into the kernel under sequence numbers that
// were reserved at submission, which makes the dispatch order — and hence
// every simulation output — byte-identical to the sequential kernel at any
// GOMAXPROCS.
//
// Synchronization is conservative (lookahead-based): every queued command
// with an observable completion lowers the kernel's safe horizon to a sound
// lower bound on its finish time (submission instant + bus transfer + array
// operation, ignoring queueing — queueing only pushes completions later).
// The kernel never advances the clock to the horizon without first asking
// the array to flush, so injected completions are never in the past.
package nand

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/checkin-kv/checkin/internal/sim"
)

// Command kinds. The kind fixes the resource walk the domain replays:
// reads hold the die first and then the bus, programs cross the bus into
// the page register first and then hold the die, erases hold only the die.
const (
	domRead uint8 = iota
	domProgram
	domErase
)

// domCmd is one deferred timing reservation. at/op/xfer are fixed at
// submission; end is filled in by the domain replay; seq/fut are set only
// for commands with an observable completion (fire-and-forget NoWait and
// failed-attempt charges carry neither).
type domCmd struct {
	kind uint8
	die  int32
	at   sim.VTime // submission instant
	op   sim.VTime // die-busy duration (command overhead included)
	xfer sim.VTime // bus transfer duration (0 when no data moves)
	end  sim.VTime // computed completion instant (replay output)
	seq  uint64    // reserved kernel sequence number (0 when fut is nil)
	fut  *sim.Future
}

// domQueue is one channel's pending command queue. Queues get their own
// backing arrays, so parallel replays write end fields into disjoint
// allocations (no false sharing beyond the read-only headers).
type domQueue struct {
	cmds []domCmd
}

// domainSet hangs off an Array when parallel domains are enabled.
type domainSet struct {
	arr     *Array
	queues  []domQueue // one per channel
	pending int        // total queued commands across all queues

	// workers caps the flush fan-out; threshold is the minimum total
	// pending count that justifies spawning goroutines at all — below it a
	// flush replays inline, which keeps the domain path's overhead near
	// zero in the steady state where commands complete one at a time.
	workers   int
	threshold int

	// work is replayParallel's scratch list of non-empty queues, kept so
	// that a flush does not allocate it anew.
	work []int
}

// domainFanoutThreshold is the default inline/parallel cut-over. A replayed
// command is two horizon walks (~tens of ns); goroutine spawn plus WaitGroup
// handshake costs on the order of a microsecond per worker, so fan-out only
// pays in NAND storm phases (checkpoint MultiCoW bursts, GC write storms)
// where hundreds of commands queue between syncs.
const domainFanoutThreshold = 128

// EnableDomains partitions the array's timing model into per-channel event
// domains and registers the flush with the kernel's conservative-sync hook.
// workers bounds the flush fan-out; workers <= 0 means GOMAXPROCS. Output
// is byte-identical to the sequential path by construction, so this is
// purely a wall-clock optimization. Must not be called with operations in
// flight (enable at construction, or at a quiescent point).
func (a *Array) EnableDomains(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	a.dom = &domainSet{
		arr:       a,
		queues:    make([]domQueue, a.geo.Channels),
		workers:   workers,
		threshold: domainFanoutThreshold,
	}
	a.eng.SetExternalSync(a.dom.flush)
}

// DisableDomains flushes any pending commands and returns the array to the
// purely sequential path.
func (a *Array) DisableDomains() {
	if a.dom == nil {
		return
	}
	a.eng.SyncExternal()
	a.eng.SetExternalSync(nil)
	a.dom = nil
}

// DomainsEnabled reports whether the parallel timing path is active.
func (a *Array) DomainsEnabled() bool { return a.dom != nil }

// syncDomains forces every queued command's timing to be applied. Callers
// that read resource state the domains own — busy horizons, backlogs,
// utilization totals — must sync first. Cheap no-op when nothing is queued.
func (a *Array) syncDomains() {
	if a.dom != nil && a.dom.pending > 0 {
		a.eng.SyncExternal()
	}
}

// discardDomains drops queued commands without applying them — restore-path
// only: the commands belong to an abandoned timeline, and the kernel's
// Restore has already reset the safe horizon that guarded them.
func (a *Array) discardDomains() {
	if a.dom == nil {
		return
	}
	for i := range a.dom.queues {
		q := &a.dom.queues[i]
		for j := range q.cmds {
			q.cmds[j] = domCmd{} // release future references
		}
		q.cmds = q.cmds[:0]
	}
	a.dom.pending = 0
}

// submit queues a command on channel ch. When the command has an observable
// completion (wantFut), it draws its kernel sequence number now — the same
// draw the sequential AtHandler would make at this exact point in the
// submission order — and lowers the safe horizon to a sound lower bound on
// its completion time.
func (d *domainSet) submit(ch int, c domCmd, wantFut bool) *sim.Future {
	eng := d.arr.eng
	c.at = eng.Now()
	if wantFut {
		c.fut = sim.NewFuture(eng)
		c.seq = eng.ReserveSeq()
		// Queueing behind earlier commands only pushes the completion
		// later, so submission + transfer + operation is a sound bound.
		eng.LowerHorizon(c.at + c.xfer + c.op)
	}
	q := &d.queues[ch]
	q.cmds = append(q.cmds, c)
	d.pending++
	return c.fut
}

// flush replays every queued command and merges the completions back into
// the kernel. Called by the kernel's conservative-sync hook (and by
// syncDomains) on the main goroutine; workers never outlive the call.
func (d *domainSet) flush() {
	if d.pending == 0 {
		return
	}
	d.pending = 0
	if d.workers > 1 && runtime.GOMAXPROCS(0) > 1 {
		d.replayParallel()
	} else {
		for i := range d.queues {
			if len(d.queues[i].cmds) > 0 {
				d.arr.replayQueue(i)
			}
		}
	}
	// Merge on the main goroutine, channels in index order. Any injection
	// order yields the same dispatch: the reserved (at, seq) pairs form the
	// same strict total order the sequential kernel would have produced.
	for i := range d.queues {
		q := &d.queues[i]
		for j := range q.cmds {
			c := &q.cmds[j]
			if c.fut != nil {
				d.arr.eng.InjectCompletion(c.end, c.seq, c.fut)
			}
			*c = domCmd{}
		}
		q.cmds = q.cmds[:0]
	}
}

// replayParallel fans the non-empty queues out across worker goroutines.
// Work is split by channel — each queue touches only its own channel bus
// and the dies striped onto it, so workers share no mutable state.
func (d *domainSet) replayParallel() {
	d.work = d.work[:0]
	total := 0
	for i := range d.queues {
		if n := len(d.queues[i].cmds); n > 0 {
			d.work = append(d.work, i)
			total += n
		}
	}
	work := d.work // never reassigned, so the workers capture it by value
	if total < d.threshold || len(work) < 2 {
		for _, i := range work {
			d.arr.replayQueue(i)
		}
		return
	}
	workers := d.workers
	if workers > len(work) {
		workers = len(work)
	}
	var next int32 // next index into work, claimed atomically
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1)) - 1
				if i >= len(work) {
					return
				}
				d.arr.replayQueue(work[i])
			}
		}()
	}
	wg.Wait()
}

// replayQueue applies one channel's queued commands in submission order:
// exactly the Reserve calls — same arguments, same order per resource —
// the sequential path would have made inline.
func (a *Array) replayQueue(ch int) {
	bus := &a.channels[ch]
	q := &a.dom.queues[ch]
	for j := range q.cmds {
		c := &q.cmds[j]
		die := &a.dies[c.die]
		switch c.kind {
		case domRead:
			_, dieDone := die.Reserve(c.at, c.op)
			_, c.end = bus.Reserve(dieDone, c.xfer)
		case domProgram:
			_, xferDone := bus.Reserve(c.at, c.xfer)
			_, c.end = die.Reserve(xferDone, c.op)
		case domErase:
			_, c.end = die.Reserve(c.at, c.op)
		}
	}
}
