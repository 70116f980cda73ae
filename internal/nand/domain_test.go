package nand

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// domainScript drives a mixed flash workload — waited and fire-and-forget
// reads/programs/erases, failed-attempt charges, mid-run state queries and
// a recovery-style die reservation — against an array, and returns a full
// trace of everything observable: completion times, page indices, query
// answers, final busy horizons and counters. The trace must be identical
// with domains on and off.
func domainScript(t *testing.T, enableDomains bool, workers int) string {
	t.Helper()
	e := sim.NewEngine()
	a := newTestArray(t, e)
	if err := a.EnableReliability(ReliabilityConfig{
		ReadRetryRate:     0.2,
		RetryEscalation:   0.5,
		UncorrectableRate: 0.05,
		ProgramFailRate:   0.1,
		EraseFailRate:     0.05,
		WearFactor:        0.1,
	}, 42); err != nil {
		t.Fatal(err)
	}
	if enableDomains {
		a.EnableDomains(workers)
	}

	var trace []string
	note := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	blocks := a.geo.TotalBlocks()

	// Seed every block with a couple of programmed pages.
	for b := 0; b < blocks; b++ {
		b := b
		page, f := a.ProgramPage(b, 0)
		f.OnComplete(func() { note("seed prog b%d p%d done @%v", b, page, e.Now()) })
		a.ProgramPageNoWait(b, 2048)
	}
	e.Run()

	// Burst phase: interleave every op kind across all channels at one
	// instant, with queries and failure charges mixed in.
	e.At(e.Now()+10*sim.Microsecond, func() {
		for b := 0; b < blocks; b++ {
			b := b
			f := a.ReadPage(b, 0, 4096)
			f.OnComplete(func() { note("read b%d done @%v", b, e.Now()) })
			if b%3 == 0 {
				a.ReadPageNoWait(b, 1, 512)
			}
			if b%4 == 0 {
				a.ProgramFailedAttempt(b, 4096)
			}
			if b%5 == 0 {
				steps, unc := a.SampleRead(b)
				note("sample b%d steps=%d unc=%v", b, steps, unc)
			}
			page, pf := a.ProgramPage(b, 4096)
			pf.OnComplete(func() { note("prog b%d p%d done @%v", b, page, e.Now()) })
		}
		// Mid-burst state queries force a sync and must see every prior
		// submission's timing applied.
		note("backlog @%v = %v", e.Now(), a.MaxBacklog(e.Now()))
		note("die0 idle = %v", a.DieIdleAt(0, e.Now()))
		note("reserve die end = %v", a.ReserveDie(1, 7*sim.Microsecond))
		for b := 0; b < blocks; b += 2 {
			b := b
			if b%6 == 0 {
				a.EraseFailedAttempt(b)
			}
			ef := a.EraseBlock(b)
			ef.OnComplete(func() { note("erase b%d done @%v", b, e.Now()) })
		}
		if b := blocks - 1; true {
			a.EraseBlockNoWait(1)
			note("erase nowait issued b1, last=%d", b)
		}
	})
	e.Run()

	note("allidle = %v @%v", a.AllDiesIdleAt(e.Now()), e.Now())
	for d := 0; d < a.geo.TotalDies(); d++ {
		note("die%d busy=%v", d, a.DieBusyTotal(d))
	}
	for c := 0; c < a.geo.Channels; c++ {
		note("ch%d busy=%v", c, a.ChannelBusyTotal(c))
	}
	note("stats=%+v energy=%d now=%v executed=%d", a.Stats(), a.EnergyNJ(), e.Now(), e.Executed())

	out := ""
	for _, l := range trace {
		out += l + "\n"
	}
	return out
}

// TestDomainEquivalence is the package-level byte-identity check: the full
// observable trace of a mixed workload must not change when the per-channel
// domains are enabled, at any worker count.
func TestDomainEquivalence(t *testing.T) {
	want := domainScript(t, false, 0)
	for _, workers := range []int{1, 2, 4} {
		got := domainScript(t, true, workers)
		if got != want {
			t.Fatalf("domains on (workers=%d) diverges from sequential:\n--- sequential ---\n%s--- domains ---\n%s",
				workers, want, got)
		}
	}
}

// TestDomainEquivalenceAcrossGOMAXPROCS re-checks byte-identity with the
// runtime actually allowed to run workers in parallel.
func TestDomainEquivalenceAcrossGOMAXPROCS(t *testing.T) {
	want := domainScript(t, false, 0)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	if got := domainScript(t, true, 4); got != want {
		t.Fatalf("domains on under GOMAXPROCS=4 diverges from sequential:\n--- sequential ---\n%s--- domains ---\n%s",
			want, got)
	}
}

// TestDomainForcedFanout drops the fan-out threshold to zero and checks the
// parallel replay itself (not just the inline fallback) against sequential.
func TestDomainForcedFanout(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	run := func(enable bool) (sim.VTime, sim.VTime, Stats, uint64) {
		e := sim.NewEngine()
		a := newTestArray(t, e)
		if enable {
			a.EnableDomains(4)
			a.dom.threshold = 0
		}
		for b := 0; b < a.geo.TotalBlocks(); b++ {
			a.ProgramPageNoWait(b, 0)
			a.ProgramPageNoWait(b, 0)
		}
		var last *sim.Future
		for round := 0; round < 4; round++ {
			for b := 0; b < a.geo.TotalBlocks(); b++ {
				a.ReadPageNoWait(b, 0, 4096)
				last = a.ReadPage(b, 1, 4096)
				_, pf := a.ProgramPage(b, 4096)
				last = pf
			}
			e.Run()
		}
		_ = last
		return a.MaxBacklog(e.Now()), e.Now(), a.Stats(), e.Executed()
	}

	b0, n0, s0, x0 := run(false)
	b1, n1, s1, x1 := run(true)
	if b0 != b1 || n0 != n1 || s0 != s1 || x0 != x1 {
		t.Fatalf("forced fan-out diverges: backlog %v/%v now %v/%v stats %+v/%+v executed %d/%d",
			b0, b1, n0, n1, s0, s1, x0, x1)
	}
}

// TestDomainSnapshotRestore checks that a snapshot taken with domains on
// (pending commands queued) equals the sequential snapshot, and that
// restore discards queued commands instead of applying them.
func TestDomainSnapshotRestore(t *testing.T) {
	build := func(enable bool) (*sim.Engine, *Array) {
		e := sim.NewEngine()
		a := newTestArray(t, e)
		if enable {
			a.EnableDomains(2)
		}
		for b := 0; b < 4; b++ {
			a.ProgramPageNoWait(b, 0)
		}
		e.Run()
		return e, a
	}

	eSeq, aSeq := build(false)
	eDom, aDom := build(true)
	if eSeq.Now() != eDom.Now() {
		t.Fatalf("clocks diverge before snapshot: %v vs %v", eSeq.Now(), eDom.Now())
	}
	// Queue un-flushed work, then snapshot: the snapshot must include it.
	aSeq.ReadPageNoWait(0, 0, 4096)
	aDom.ReadPageNoWait(0, 0, 4096)
	sSeq := aSeq.Snapshot()
	sDom := aDom.Snapshot()
	if fmt.Sprintf("%+v", sSeq) != fmt.Sprintf("%+v", sDom) {
		t.Fatalf("snapshots diverge:\nseq %+v\ndom %+v", sSeq, sDom)
	}

	// Restore with commands pending: they must be discarded, leaving the
	// restored horizons exactly as captured.
	st := eDom.State()
	aDom.ReadPageNoWait(1, 0, 4096) // pending on the domain, never flushed
	eDom.Restore(st)
	if err := aDom.Restore(sDom); err != nil {
		t.Fatal(err)
	}
	if err := aSeq.Restore(sSeq); err != nil {
		t.Fatal(err)
	}
	if got, want := aDom.MaxBacklog(eDom.Now()), aSeq.MaxBacklog(eSeq.Now()); got != want {
		t.Fatalf("post-restore backlog %v, want %v", got, want)
	}
	if aDom.Stats() != aSeq.Stats() {
		t.Fatalf("post-restore stats %+v, want %+v", aDom.Stats(), aSeq.Stats())
	}
}

// TestDisableDomains checks DisableDomains flushes pending work and the
// array keeps functioning sequentially.
func TestDisableDomains(t *testing.T) {
	e := sim.NewEngine()
	a := newTestArray(t, e)
	a.EnableDomains(2)
	a.ProgramPageNoWait(0, 0)
	f := a.ReadPage(0, 0, 4096) // the read queues behind the program
	a.DisableDomains()
	if a.DomainsEnabled() {
		t.Fatalf("domains still enabled after DisableDomains")
	}
	e.Run()
	if !f.Done() {
		t.Fatalf("future queued before DisableDomains never completed")
	}
	if bu := a.MaxBacklog(0); bu == 0 {
		t.Fatalf("flush did not apply the queued reservations")
	}
}

// TestDomainFlushAllocs guards the flush below the fan-out threshold: with
// several workers allowed and commands queued on every channel, it replays
// inline and allocates nothing once the queues and the scratch list have
// grown. testing.AllocsPerRun pins GOMAXPROCS to 1, which would skip the
// multi-worker path entirely, so the test reads the malloc counter itself.
func TestDomainFlushAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	e := sim.NewEngine()
	a := newTestArray(t, e)
	for b := 0; b < a.geo.TotalBlocks(); b++ {
		a.ProgramPageNoWait(b, 0)
	}
	e.Run()
	a.EnableDomains(4)
	if a.geo.TotalBlocks() >= a.dom.threshold {
		t.Fatalf("%d queued reads would fan out (threshold %d)", a.geo.TotalBlocks(), a.dom.threshold)
	}
	flush := func() {
		for b := 0; b < a.geo.TotalBlocks(); b++ {
			a.ReadPageNoWait(b, 0, 4096)
		}
		a.syncDomains()
	}
	flush()
	reads := a.Stats().Reads
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		flush()
	}
	runtime.ReadMemStats(&after)
	if got := a.Stats().Reads - reads; got != 100*uint64(a.geo.TotalBlocks()) {
		t.Fatalf("flushed %d reads, want %d", got, 100*a.geo.TotalBlocks())
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("100 inline domain flushes allocate %d objects, want 0", n)
	}
}
