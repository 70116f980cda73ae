package ftl

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
)

// tableDump is a copy of every address table's entries.
type tableDump struct {
	l2p, rev, oobLun, stored, tp []int32
	refcnt                       []uint8
	oobSeq                       []uint64
}

func dumpTables(f *FTL) tableDump {
	return tableDump{
		l2p: entries(&f.l2p), rev: entries(&f.rev), oobLun: entries(&f.rlog.oobLun),
		stored: entries(&f.fm.stored), tp: entries(&f.rlog.tp),
		refcnt: entries(&f.refcnt), oobSeq: entries(&f.rlog.oobSeq),
	}
}

// forkFTL forks f onto a kernel and array of its own. It may run on any
// goroutine: a failed fork is reported and returns a nil FTL.
func forkFTL(t testing.TB, e *sim.Engine, f *FTL) (*sim.Engine, *FTL) {
	t.Helper()
	fe := e.Fork(e.State())
	c, err := Fork(fe, nand.Fork(fe, f.array), f)
	if err != nil {
		t.Error(err)
	}
	return fe, c
}

// forkGeo spans eight chunks of slots, so a fork's writes leave some of
// every table's chunks shared.
func forkGeo() nand.Geometry {
	return nand.Geometry{Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 2, PlanesPerDie: 1,
		BlocksPerPlane: 64, PagesPerBlock: 8, PageSize: 2048}
}

// churn drives ops host writes, remaps and trims at random units of f and
// a forced collection, then drains the kernel.
func churn(e *sim.Engine, f *FTL, rng *rand.Rand, ops int) {
	units := f.LogicalBytes() / int64(f.unit)
	for range ops {
		lun := rng.Int64N(units - 8)
		switch rng.IntN(8) {
		case 0:
			f.Remap(lun*int64(f.unit), rng.Int64N(units-8)*int64(f.unit), 4*int64(f.unit))
		case 1:
			f.Trim(lun*int64(f.unit), 2*int64(f.unit))
		default:
			f.Write(lun*int64(f.unit), int64(f.unit)*(1+rng.Int64N(4)), TagHostData, StreamData)
		}
		e.Run()
	}
	f.Sync(StreamData, TagHostData)
	f.BackgroundGCForce(2)
	e.Run()
}

// scribble writes t through each of its write paths: set, ref and a fill
// that crosses a chunk boundary.
func scribble[T tableEntry](t *chunkTable[T], rng *rand.Rand) {
	if t.len() == 0 {
		return
	}
	t.set(rng.Int64N(t.len()), 7)
	*t.ref(rng.Int64N(t.len()))++
	lo := rng.Int64N(t.len())
	t.fill(lo, min(t.len(), lo+chunkSpan+3), 9)
}

// TestForkWritesStayPrivate forks a shared template from several goroutines
// at once: writer forks run host writes, remaps, trims and collections and
// then write every address table through each of its write paths, while
// sibling forks read theirs. Afterwards the template and every sibling
// must hold exactly the entries the template held before. Run it under
// -race: a fork writing a shared chunk in place is both a data race with
// the readers and a byte difference here.
func TestForkWritesStayPrivate(t *testing.T) {
	dftl := smallCfg()
	dftl.FlashMap, dftl.CMTEntries, dftl.MetaFlushEntries = true, 1, 96
	for name, cfg := range map[string]Config{"dram": smallCfg(), "dftl": dftl} {
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine()
			arr, err := nand.New(e, forkGeo(), fastTim())
			if err != nil {
				t.Fatal(err)
			}
			tmpl, err := New(e, arr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			churn(e, tmpl, rand.New(rand.NewPCG(1, 2)), 3000)
			tmpl.Share()
			want := dumpTables(tmpl)
			if c := tmpl.TableChunks(); c.Owned != 0 || c.Total < 4*8 {
				t.Fatalf("shared template owns %d of %d chunks, want 0 of at least 32", c.Owned, c.Total)
			}

			const writers, readers = 3, 3
			siblings := make([]*FTL, readers)
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fe, f := forkFTL(t, e, tmpl)
					if f == nil {
						return
					}
					rng := rand.New(rand.NewPCG(uint64(w), 9))
					churn(fe, f, rng, 400)
					if err := f.CheckInvariants(); err != nil {
						t.Errorf("writer %d: %v", w, err)
					}
					for _, tab := range []*chunkTable[int32]{&f.l2p, &f.rev, &f.rlog.oobLun, &f.fm.stored, &f.rlog.tp} {
						scribble(tab, rng)
					}
					scribble(&f.refcnt, rng)
					scribble(&f.rlog.oobSeq, rng)
					if reflect.DeepEqual(dumpTables(f), want) {
						t.Errorf("writer %d: tables unchanged after its writes", w)
					}
				}()
			}
			for r := range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, f := forkFTL(t, e, tmpl)
					if f == nil {
						return
					}
					for range 20 {
						dumpTables(f)
					}
					siblings[r] = f
				}()
			}
			wg.Wait()
			if !reflect.DeepEqual(dumpTables(tmpl), want) {
				t.Error("a fork's writes reached the template's tables")
			}
			for r, f := range siblings {
				if f == nil {
					continue
				}
				if !reflect.DeepEqual(dumpTables(f), want) {
					t.Errorf("a fork's writes reached sibling %d's tables", r)
				}
				if owned := f.TableChunks().Owned; owned != 0 {
					t.Errorf("sibling %d, which only read, owns %d chunks", r, owned)
				}
			}
		})
	}
}

// TestForkSharesTableChunks: at TestFTLTableFootprint's geometry a fresh
// fork owns no chunk of any address table, and a one-unit host write makes
// private exactly the chunks holding its entries — the unit's l2p chunk
// and its slot's refcnt, rev and OOB chunks — leaving the template's
// untouched; the template's own later writes leave the fork's untouched.
func TestForkSharesTableChunks(t *testing.T) {
	geo := nand.Geometry{Channels: 4, PackagesPerChannel: 1, DiesPerPackage: 2, PlanesPerDie: 2,
		BlocksPerPlane: 40, PagesPerBlock: 64, PageSize: 4096}
	for _, flashMap := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UnitSize, cfg.OverProvision, cfg.Parallelism = 512, 0.12, 8
		cfg.MetaFlushEntries, cfg.FlashMap, cfg.CMTEntries = 512, flashMap, 32768
		e := sim.NewEngine()
		arr, err := nand.New(e, geo, fastTim())
		if err != nil {
			t.Fatal(err)
		}
		tmpl, err := New(e, arr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fe, f := forkFTL(t, e, tmpl)
		if f == nil {
			t.FailNow()
		}
		c := f.TableChunks()
		t.Logf("flashMap %v: a fresh fork owns %d of %d chunks", flashMap, c.Owned, c.Total)
		if c.Owned != 0 {
			t.Fatalf("flashMap %v: a fresh fork owns %d of %d chunks, want none", flashMap, c.Owned, c.Total)
		}
		before := dumpTables(tmpl)
		const lun = 5000
		f.Write(lun*512, 512, TagHostData, StreamData)
		fe.Run()
		sid := int64(f.l2p.at(lun))
		for name, got := range map[string][]int{
			"l2p": ownedIdx(&f.l2p), "stored": ownedIdx(&f.fm.stored), "tp": ownedIdx(&f.rlog.tp),
			"refcnt": ownedIdx(&f.refcnt), "rev": ownedIdx(&f.rev),
			"oobLun": ownedIdx(&f.rlog.oobLun), "oobSeq": ownedIdx(&f.rlog.oobSeq),
		} {
			var want []int
			switch name {
			case "l2p":
				want = []int{lun >> chunkShift}
			case "refcnt", "rev", "oobLun", "oobSeq":
				want = []int{int(sid >> chunkShift)}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("flashMap %v: after one write %s owns chunks %v, want %v", flashMap, name, got, want)
			}
		}
		if owned := tmpl.TableChunks().Owned; owned != 0 {
			t.Errorf("flashMap %v: the template owns %d chunks after a fork", flashMap, owned)
		}
		if !reflect.DeepEqual(dumpTables(tmpl), before) {
			t.Errorf("flashMap %v: the fork's write reached the template", flashMap)
		}
		// The source may keep running, as a stack cloned mid-life does:
		// its writes copy the chunks the fork still shares.
		after := dumpTables(f)
		tmpl.Write(100_000*512, 4096, TagHostData, StreamData) // a chunk the fork shares
		e.Run()
		if !reflect.DeepEqual(dumpTables(f), after) {
			t.Errorf("flashMap %v: the source's writes after the fork reached the fork", flashMap)
		}
	}
}

// ownedIdx lists the indexes of the chunks t owns.
func ownedIdx[T tableEntry](t *chunkTable[T]) []int {
	var out []int
	for c, own := range t.own {
		if own {
			out = append(out, c)
		}
	}
	return out
}
