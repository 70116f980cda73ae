package core

import (
	"maps"
	"math/rand/v2"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// jmtRef is the map reference for one table: each key's newest version and
// the log's versions in append order.
type jmtRef struct {
	latest map[int64]int64
	log    []struct{ key, version int64 }
}

func (r *jmtRef) clone() *jmtRef {
	return &jmtRef{latest: maps.Clone(r.latest), log: append(r.log[:0:0], r.log...)}
}

// checkJMT compares t against r: Latest for every key of the key space (and
// beyond it), Len, Live, and every entry's OLD flag.
func checkJMT(t *testing.T, step int, tab *JMT, r *jmtRef, keys int64) {
	t.Helper()
	for k := int64(-1); k <= keys; k++ {
		e := tab.Latest(k)
		v, ok := r.latest[k]
		switch {
		case !ok && e != nil:
			t.Fatalf("step %d: Latest(%d) = version %d, want none", step, k, e.version)
		case ok && (e == nil || e.key != k || e.version != v || e.old):
			t.Fatalf("step %d: Latest(%d) = %+v, want version %d", step, k, e, v)
		}
	}
	if tab.Len() != len(r.log) || tab.Live() != len(r.latest) {
		t.Fatalf("step %d: Len/Live %d/%d, want %d/%d", step, tab.Len(), tab.Live(), len(r.log), len(r.latest))
	}
	for i, e := range tab.Entries() {
		want := r.log[i]
		if e.key != want.key || e.version != want.version || e.old != (r.latest[e.key] != e.version) {
			t.Fatalf("step %d: entry %d = %+v, want key %d version %d old %v",
				step, i, e, want.key, want.version, r.latest[e.key] != e.version)
		}
	}
}

// TestJMTDenseOracle runs random Add / Latest / clone / retire / reuse
// sequences on the key-indexed JMT against a map reference. Retiring resets
// a table for reuse, and the appends that follow must recycle its entry
// objects without leaking any earlier field or flag; a clone must be
// independent of its source in both directions.
func TestJMTDenseOracle(t *testing.T) {
	const keys = 40
	rng := rand.New(rand.NewPCG(14, 1))
	for _, tab := range []*JMT{newJMT(keys), NewJMT()} {
		ref := &jmtRef{latest: map[int64]int64{}}
		version := int64(0)
		recycled := 0
		for step := 0; step < 4000; step++ {
			switch op := rng.IntN(100); {
			case op < 70:
				k := rng.Int64N(keys)
				version++
				reuse := len(tab.entries) < cap(tab.entries) && tab.entries[:len(tab.entries)+1][len(tab.entries)] != nil
				e := tab.newEntry()
				if e.key != 0 || e.version != 0 || e.off != 0 || e.stored != 0 || e.old || e.committed {
					t.Fatalf("step %d: newEntry handed out a dirty entry %+v", step, e)
				}
				if reuse {
					recycled++
				}
				e.key, e.version, e.off, e.stored, e.committed = k, version, version*512, 512, true
				tab.Add(e)
				ref.latest[k] = version
				ref.log = append(ref.log, struct{ key, version int64 }{k, version})
			case op < 80:
				c := tab.clone()
				cref := ref.clone()
				checkJMT(t, step, c, cref, keys)
				// mutate the clone: the source must not move
				version++
				e := c.newEntry()
				e.key, e.version = rng.Int64N(keys), version
				c.Add(e)
				checkJMT(t, step, tab, ref, keys)
				if rng.IntN(2) == 0 {
					cref.latest[e.key] = version
					cref.log = append(cref.log, struct{ key, version int64 }{e.key, version})
					tab, ref = c, cref
				}
			case op < 88:
				tab.reset() // retire: the table is reused by the next cut
				ref = &jmtRef{latest: map[int64]int64{}}
			}
			checkJMT(t, step, tab, ref, keys)
		}
		if recycled == 0 {
			t.Fatal("no append reused a retired entry object")
		}
	}
}

// TestJournalAppendAllocs guards the journal's share of a steady-state
// Update — the overflow probe, the append into the JMT and its key index,
// the buffered batch with its running size estimate, and the fill check —
// across checkpoint cuts: once the table a finished checkpoint retired is
// reused by a later cut, appending allocates nothing. Each cycle appends
// one log that starts a group commit, then measures a burst buffered
// behind it, then measures whole single-update group commits, then cuts and
// retires the old table as the engine does.
func TestJournalAppendAllocs(t *testing.T) {
	e, dev := newStack(t, 512)
	l := testLayout(t, dev, 1000, 512, 512)
	j := newJournal(e, dev, l, true, 0, 0.85)
	v := int64(0)
	update := func() {
		v++
		key := v * 7 % 1000
		if j.WouldOverflow(300) {
			t.Fatal("journal half full: test burst too large")
		}
		j.Append(key, v, 300)
		_ = j.UsedFrac()
	}
	// commit is one whole group commit of a single update: the device
	// write and flush records come back through Release, the flush's
	// completion handler is a method and the completed batch future is
	// reset for the next batch, so nothing is new.
	commit := func() {
		update()
		e.RunUntil(e.Now() + 10*sim.Millisecond)
		if !j.Quiet() {
			t.Fatal("group commit still in flight")
		}
	}
	for cycle := 0; cycle < 5; cycle++ {
		update() // starts a group commit: its futures are the commit's cost
		n := testing.AllocsPerRun(200, update)
		if cycle >= 2 && n != 0 {
			t.Fatalf("cycle %d (after %d cuts): Update's journal path allocates %.2f/op, want 0", cycle, cycle, n)
		}
		e.RunUntil(e.Now() + 10*sim.Millisecond)
		if n := testing.AllocsPerRun(20, commit); cycle >= 2 && n != 0 {
			t.Fatalf("cycle %d: a group commit allocates %.2f objects, want 0", cycle, n)
		}
		var snap ckptSnapshot
		runProc(e, func(p *sim.Proc) { snap = j.CutForCheckpoint(p) })
		j.retire(snap.jmt)
	}
}
