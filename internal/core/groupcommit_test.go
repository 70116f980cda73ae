package core

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
)

// fakeRec is a minimal LogRecord: the group commit knows nothing of the
// engines' record types.
type fakeRec struct {
	eng          *sim.Engine
	key, version int64
	payload      int
	off          int64
	commits      int       // Commit calls
	committedAt  sim.VTime // virtual time of the last Commit
}

func (r *fakeRec) Commit() (int64, int64) {
	r.commits++
	r.committedAt = r.eng.Now()
	return r.key, r.version
}

// fakeBatch is one Layout call as the group commit issued it.
type fakeBatch struct {
	recs   []*fakeRec
	base   int64
	length int64
	at     sim.VTime
}

// fakeFormat lays records out back to back in 512-byte slots and records
// every batch it is handed.
type fakeFormat struct {
	eng     *sim.Engine
	batches []fakeBatch
}

func (f *fakeFormat) Reserve(payload int) int64 { return roundUp(int64(payload), 512) }

func (f *fakeFormat) Layout(batch []*fakeRec, base int64, st *JournalStats) int64 {
	off := base
	for _, r := range batch {
		r.off = off
		off += roundUp(int64(r.payload), 512)
		st.FullLogs++
	}
	f.batches = append(f.batches, fakeBatch{recs: append([]*fakeRec(nil), batch...), base: base, length: off - base, at: f.eng.Now()})
	return off - base
}

// fakeLog is a group commit over a real sim+ssd stack with fake records.
type fakeLog struct {
	eng  *sim.Engine
	g    *GroupCommit[*fakeRec]
	form *fakeFormat
	logs [2][]*fakeRec
	inj  *inject.Injector
	recs []*fakeRec // every record appended, in order
	// futs[i] counts how often record i's future completed.
	futs []int
}

func newFakeLog(t *testing.T, keys int64) *fakeLog {
	t.Helper()
	e, dev := newStack(t, 512)
	l := &fakeLog{eng: e, form: &fakeFormat{eng: e}, inj: inject.New()}
	l.g = NewGroupCommit(e, dev, LogFormat[*fakeRec](l.form), &l.logs[0], LogConfig{
		Keys:       keys,
		HalfBytes:  1 << 20,
		CommitSite: inject.SiteWALCommit,
		CutSite:    inject.SiteCheckpointCut,
		Injector:   l.inj,
	})
	return l
}

// appendRec logs one record the way the engines do: append to the active
// half's log, queue it, start a commit. Its future is checked on
// completion: the record must be committed exactly once, before the
// future fires, with the durable vector already advanced.
func (l *fakeLog) appendRec(t *testing.T, key, version int64) (*fakeRec, *sim.Future) {
	r := &fakeRec{eng: l.eng, key: key, version: version, payload: 300}
	log := &l.logs[l.g.Active()]
	*log = append(*log, r)
	fut := l.g.Queue(r.payload)
	l.g.StartCommit()
	i := len(l.recs)
	l.recs = append(l.recs, r)
	l.futs = append(l.futs, 0)
	fut.OnComplete(func() {
		l.futs[i]++
		if r.commits != 1 {
			t.Errorf("record %d: future completed with %d commits", i, r.commits)
		}
		if got := l.g.Durable()[key]; got < version {
			t.Errorf("record %d: future completed with durable[%d] = %d < %d", i, key, got, version)
		}
	})
	return r, fut
}

// checkAllDone asserts every future completed exactly once and every
// record was committed strictly after the layout of the batch holding it
// (the device write + flush takes virtual time).
func (l *fakeLog) checkAllDone(t *testing.T) {
	t.Helper()
	laidAt := map[*fakeRec]sim.VTime{}
	for _, b := range l.form.batches {
		for _, r := range b.recs {
			if _, dup := laidAt[r]; dup {
				t.Fatalf("record (key %d v%d) laid out twice", r.key, r.version)
			}
			laidAt[r] = b.at
		}
	}
	for i, r := range l.recs {
		if l.futs[i] != 1 {
			t.Fatalf("record %d: future completed %d times, want 1", i, l.futs[i])
		}
		at, ok := laidAt[r]
		if !ok {
			t.Fatalf("record %d never laid out", i)
		}
		if r.committedAt <= at {
			t.Fatalf("record %d committed at %v, not after its batch's layout at %v", i, r.committedAt, at)
		}
	}
}

func TestGroupCommitFuturesCompleteOnceAfterFlush(t *testing.T) {
	l := newFakeLog(t, 64)
	// A burst with nothing else scheduled: the first append starts a
	// commit, the rest must be chained by the completion handler.
	for i := int64(0); i < 40; i++ {
		l.appendRec(t, i%16, i+1)
	}
	l.eng.Run()
	l.checkAllDone(t)
	if n := len(l.form.batches); n != 2 {
		t.Fatalf("burst committed in %d batches, want 2 (one, then the chained rest)", n)
	}
	if st := l.g.Stats(); st.Logs != 40 || st.Commits != 2 || st.FullLogs != 40 {
		t.Errorf("stats = %+v", st)
	}
	if hits := l.inj.Hits(inject.SiteWALCommit); hits != 2 {
		t.Errorf("commit site hit %d times, want 2", hits)
	}
	for k := int64(0); k < 16; k++ {
		last := int64(0)
		for _, r := range l.recs {
			if r.key == k && r.version > last {
				last = r.version
			}
		}
		if got := l.g.Durable()[k]; got != last {
			t.Errorf("durable[%d] = %d, want %d", k, got, last)
		}
	}
	if !l.g.Quiet() {
		t.Error("log not quiet after draining")
	}
}

func TestGroupCommitBatchesContiguous(t *testing.T) {
	l := newFakeLog(t, 1000)
	// Writers append at staggered times so batches of varying size form.
	for w := 0; w < 4; w++ {
		w := w
		l.eng.Go("writer", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				_, f := l.appendRec(t, int64(w*250+i), 1)
				if i%3 == 0 {
					p.Wait(f)
				} else {
					p.Sleep(sim.VTime(10*(w+1)) * sim.Microsecond)
				}
			}
		})
	}
	l.eng.Run()
	l.checkAllDone(t)
	// Batches tile half 0 from its start, in append order, and every
	// batch's records sit back to back inside it.
	next := l.g.HalfStart(0)
	var order []*fakeRec
	for i, b := range l.form.batches {
		if b.base != next {
			t.Fatalf("batch %d at %d, want %d (contiguous with the previous batch)", i, b.base, next)
		}
		off := b.base
		for _, r := range b.recs {
			if r.off != off {
				t.Fatalf("batch %d: record at %d, want %d", i, r.off, off)
			}
			off += 512
		}
		next += b.length
		if next > l.g.HalfStart(0)+l.g.cfg.HalfBytes {
			t.Fatalf("batch %d runs past the half's end", i)
		}
		order = append(order, b.recs...)
	}
	if len(l.form.batches) < 2 {
		t.Fatalf("only %d batches formed; the test needs group commits", len(l.form.batches))
	}
	for i := range order {
		if order[i] != l.recs[i] {
			t.Fatalf("laid-out record %d is not the %d-th appended", i, i)
		}
	}
}

func TestGroupCommitCutRotatesWithoutBlocking(t *testing.T) {
	l := newFakeLog(t, 1000)
	stop := false
	for w := 0; w < 4; w++ {
		w := w
		l.eng.Go("writer", func(p *sim.Proc) {
			for i := 0; !stop; i++ {
				_, f := l.appendRec(t, int64((w*250+i)%1000), int64(i+1))
				p.Wait(f)
			}
		})
	}
	var duringCut []*fakeRec
	cutDone := false
	l.eng.Go("cutter", func(p *sim.Proc) {
		p.Sleep(3 * sim.Millisecond)
		oldLog := &l.logs[0]
		// A record appended while the cut drains must go to the fresh log.
		l.eng.Go("mid-cut-writer", func(p *sim.Proc) {
			for l.g.cutting {
				r, _ := l.appendRec(t, 999, 1_000_000+int64(len(duringCut)))
				duringCut = append(duringCut, r)
				p.Sleep(20 * sim.Microsecond)
			}
		})
		half, used := l.g.Cut(p, &l.logs[1])
		cutDone = true
		stop = true
		if half != 0 || l.g.Active() != 1 {
			t.Errorf("cut returned half %d, active now %d; want 0 and 1", half, l.g.Active())
		}
		// the old half is durable the instant the cut returns
		var laid int64
		for _, r := range *oldLog {
			if r.commits != 1 {
				t.Fatalf("old-half record (key %d v%d) not durable when the cut returned", r.key, r.version)
			}
			laid += 512
		}
		if used != laid {
			t.Errorf("cut reported %d bytes used, old half's records occupy %d", used, laid)
		}
	})
	for !cutDone {
		l.eng.RunUntil(l.eng.Now() + 10*sim.Millisecond)
		if l.eng.Now() > 10*sim.Second {
			t.Fatal("cut did not complete under load")
		}
	}
	l.eng.Run()
	l.checkAllDone(t)
	if len(duringCut) == 0 {
		t.Fatal("no append landed during the cut; tune the workload")
	}
	inFresh := map[*fakeRec]bool{}
	for _, r := range l.logs[1] {
		inFresh[r] = true
	}
	for _, r := range duringCut {
		if !inFresh[r] {
			t.Fatalf("record appended during the cut is not in the fresh log")
		}
		if r.off < l.g.HalfStart(1) {
			t.Fatalf("record appended during the cut laid out at %d, before half 1", r.off)
		}
	}
	if st := l.g.Stats(); st.HalfSwitches != 1 {
		t.Errorf("HalfSwitches = %d, want 1", st.HalfSwitches)
	}
	if hits := l.inj.Hits(inject.SiteCheckpointCut); hits != 1 {
		t.Errorf("cut site hit %d times, want 1", hits)
	}
}

func TestGroupCommitSyncDrains(t *testing.T) {
	l := newFakeLog(t, 100)
	synced := 0
	l.eng.Go("syncer", func(p *sim.Proc) {
		for round := 0; round < 5; round++ {
			for i := 0; i < 10+round*7; i++ {
				l.appendRec(t, int64(i), int64(round+1))
			}
			if round == 2 {
				// a cut holds the fresh half's batch back; Sync must still
				// return only once it is durable
				l.eng.Go("cutter", func(p *sim.Proc) { l.g.Cut(p, &l.logs[1]) })
				p.Sleep(sim.Microsecond)
				if !l.g.cutting {
					t.Fatal("cut not in progress; tune the test")
				}
				for i := 0; i < 5; i++ {
					l.appendRec(t, int64(50+i), int64(round+1))
				}
			}
			l.g.Sync(p)
			if !l.g.Quiet() {
				t.Errorf("round %d: Sync returned with work pending or in flight", round)
			}
			for i, r := range l.recs {
				if r.commits != 1 {
					t.Fatalf("round %d: record %d not durable after Sync", round, i)
				}
			}
			synced++
		}
	})
	// Bounded: a Sync that never returns spins on its 1 µs poll.
	for synced < 5 && l.eng.Now() < sim.Second {
		l.eng.RunUntil(l.eng.Now() + sim.Millisecond)
	}
	if synced != 5 {
		t.Fatalf("Sync returned %d of 5 times", synced)
	}
	l.checkAllDone(t)
}
