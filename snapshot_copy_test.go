package checkin_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/checkin-kv/checkin"
)

// copyAllowed names every layer field a fork may leave different from its
// template, keyed "<package>.<type>.<field>" (generic type arguments
// dropped). A fork starts from a struct copy of each template layer and
// clones or shares copy-on-write every table, so all that may differ is
// what the fork sets:
//   - wiring: the fork's own references to its kernel, its neighbouring
//     layers, its configuration or its callbacks;
//   - scratch: per-call records and reuse pools, whose content is dead
//     between operations;
//   - derived: state the fork rebuilds for its own timeline.
//
// Everything else must be copied: TestForkCopiesEveryField fails on a new
// field that is neither copied nor named here.
var copyAllowed = map[string]struct{ kind, why string }{
	"nand.Array.eng": {"wiring", "the array's own kernel"},

	"ftl.FTL.eng":   {"wiring", "the FTL's own kernel"},
	"ftl.FTL.array": {"wiring", "the FTL's own array, forked as a layer of its own"},
	"ftl.FTL.pageEpoch": {"scratch",
		"page-grouping stamps of one read or copy call: the fork's start zeroed, older than its epoch counter"},
	"ftl.FTL.pageCount": {"scratch", "page-grouping counts of one read or copy call, reset as each page is stamped"},

	"ssd.Device.eng":   {"wiring", "the controller's own kernel"},
	"ssd.Device.f":     {"wiring", "the controller's own FTL, forked as a layer of its own"},
	"ssd.Device.queue": {"wiring", "command-slot semaphore on the controller's own kernel; the template's must be idle"},
	"ssd.Device.free":  {"scratch", "pool of command records ready for reuse: the fork holds as many fresh ones"},
	"ssd.Device.deallocArmed": {"derived",
		"deallocator tick scheduling: the fork arms a tick on its own kernel"},
	"ssd.Device.deallocPaused": {"derived",
		"deallocator tick scheduling: the fork arms a tick on its own kernel"},

	"core.Base.eng":      {"wiring", "the engine's own kernel"},
	"core.Base.dev":      {"wiring", "the engine's own device, forked as a layer of its own"},
	"core.Base.cfg":      {"wiring", "the engine's own configuration; run-phase fields may differ from the template's"},
	"core.Base.host":     {"wiring", "the engine embedding the base"},
	"core.Base.log":      {"wiring", "the engine's own write-ahead log, compared through the engine"},
	"core.Base.work":     {"wiring", "epoch work bound to the engine"},
	"core.Base.then":     {"wiring", "post-epoch hook bound to the engine"},
	"core.Base.metrics":  {"scratch", "per-run collector: Run installs a fresh one"},
	"core.Base.remapBuf": {"scratch", "checkpoint-request buffers, refilled by every remap transfer"},
	"core.Base.cowBuf":   {"scratch", "CoW pair buffers, refilled by every copy transfer"},
	"core.Base.window":   {"scratch", "in-flight futures of one checkpoint window, cleared once it drains"},
	"core.Base.done": {"derived",
		"completion future of the last epoch, complete whenever the base is idle: an idle fork holds none"},

	"core.GroupCommit.eng":      {"wiring", "the log's own kernel"},
	"core.GroupCommit.dev":      {"wiring", "the log's own device"},
	"core.GroupCommit.format":   {"wiring", "record layout, set by the engine's own strategy"},
	"core.GroupCommit.onCommit": {"wiring", "the owner's commit hook"},
	"core.GroupCommit.spare":    {"scratch", "a completed batch future kept for the next batch"},

	"core.Engine.cfg": {"wiring", "the engine's own configuration; run-phase fields may differ from the template's"},

	"lsm.Engine.cfg": {"wiring", "the engine's own configuration; run-phase fields may differ from the template's"},
	"lsm.Engine.merged": {"scratch",
		"merge output of the last compaction, rewritten by the next: the fork reserves its capacity"},
	"lsm.Engine.compactDone": {"derived",
		"completion future of the last compaction, complete whenever none runs: an idle fork holds none"},
}

// sharedImmutable names the types whose objects a copy may share with its
// source: they never change while both hold them.
var sharedImmutable = map[string]string{
	"lsm.run":     "a run never changes while a level, the durable set or a fork holds it",
	"core.Layout": "the record layout never changes after NewLayout",
}

// copyOnWrite names the types through which a copy may share storage with
// its source: an FTL address table, whose chunk c (dir[c]) the table writes
// in place only while it owns it (own[c]). A chunk both sides hold must be
// owned by neither, so each copies it before its first write.
var copyOnWrite = map[string]string{
	"ftl.chunkTable": "address-table chunks are copied on a table's first write to them",
}

// copyTemplates are the stacks TestForkCopiesEveryField copies: both
// mapping-table models, a device degraded by the NAND fault model, and the
// LSM engine.
func copyTemplates(t testing.TB) map[string]checkin.Config {
	heavy, err := checkin.ParseErrorProfile("heavy")
	if err != nil {
		t.Fatal(err)
	}
	degraded := heavy.Apply(snapTestConfig(checkin.StrategyCheckIn))
	degraded.ProgramFailRate = 0.02
	dftl := snapTestConfig(checkin.StrategyCheckIn)
	dftl.FTLMap = "dftl"
	return map[string]checkin.Config{
		"journal-dram":  snapTestConfig(checkin.StrategyCheckIn),
		"journal-dftl":  dftl,
		"journal-heavy": degraded,
		"lsm":           lsmSnapConfig("leveled"),
	}
}

// TestForkCopiesEveryField checks by reflection that a fork holds every
// field of every layer — NAND array, FTL, controller, host engine — equal to
// its template's, except the fields copyAllowed names, that nothing it
// holds shares a backing array, map or pointer with the template except an
// object neither changes while both hold it (sharedImmutable) or a
// copy-on-write chunk neither side
// owns (copyOnWrite), and that
// every slice keeps at least the template's capacity (a reserve such as the
// DFTL LRU arrays' run-node ids must survive the clone). Two templates per
// stack: the post-Load snapshot Fork clones, and a stack stopped after a
// run, cloned through the same entry (CloneDB), whose journal, memtable,
// slot tables and caches hold the state a rest-point fork never sees.
func TestForkCopiesEveryField(t *testing.T) {
	for name, a := range copyAllowed {
		if (a.kind != "wiring" && a.kind != "scratch" && a.kind != "derived") || a.why == "" {
			t.Errorf("copyAllowed[%q] = %+v: want kind wiring, scratch or derived, and a reason", name, a)
		}
	}
	seen := map[string]bool{}
	for name, cfg := range copyTemplates(t) {
		t.Run(name, func(t *testing.T) {
			tmpl, err := checkin.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tmpl.Load()
			snap, err := tmpl.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fork, err := snap.Fork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareLayers(t, "fork", seen, fork, tmpl)

			src, err := checkin.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src.Load()
			if _, err := src.Run(snapTestSpec()); err != nil {
				t.Fatal(err)
			}
			src.Device().PauseDeallocator()
			src.Sim().Run()
			dst, err := checkin.CloneDB(src)
			if err != nil {
				t.Fatal(err)
			}
			compareLayers(t, "after run", seen, dst, src)
		})
	}
	for name := range copyAllowed {
		if !seen[name] {
			t.Errorf("copyAllowed names %s, which no layer has", name)
		}
	}
}

func compareLayers(t *testing.T, phase string, seen map[string]bool, cp, src *checkin.DB) {
	t.Helper()
	c := &fieldCmp{t: t, phase: phase, seen: seen, visited: map[visit]bool{}}
	c.value("nand.Array", reflect.ValueOf(cp.Device().FTL().Array()), reflect.ValueOf(src.Device().FTL().Array()))
	c.value("ftl.FTL", reflect.ValueOf(cp.Device().FTL()), reflect.ValueOf(src.Device().FTL()))
	c.value("ssd.Device", reflect.ValueOf(cp.Device()), reflect.ValueOf(src.Device()))
	c.value("host", reflect.ValueOf(cp.Host()), reflect.ValueOf(src.Host()))
}

type visit struct {
	cp, src uintptr
	typ     reflect.Type
}

// fieldCmp walks a copy and its source in step.
type fieldCmp struct {
	t       *testing.T
	phase   string
	seen    map[string]bool
	visited map[visit]bool
	errs    int
}

func (c *fieldCmp) errorf(path, format string, args ...any) {
	c.t.Helper()
	if c.errs++; c.errs <= 20 {
		c.t.Errorf("%s: %s: %s", c.phase, path, fmt.Sprintf(format, args...))
	}
}

// typeName is t's package-qualified name without type arguments.
func typeName(t reflect.Type) string {
	n := t.String()
	if i := strings.IndexByte(n, '['); i >= 0 {
		n = n[:i]
	}
	return n
}

// scalar renders a basic-kind value, or reports ok false.
func scalar(v reflect.Value) (s string, ok bool) {
	switch v.Kind() {
	case reflect.Bool:
		return fmt.Sprint(v.Bool()), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return fmt.Sprint(v.Int()), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return fmt.Sprint(v.Uint()), true
	case reflect.Float32, reflect.Float64:
		return fmt.Sprint(math.Float64bits(v.Float())), true
	case reflect.String:
		return v.String(), true
	}
	return "", false
}

func (c *fieldCmp) value(path string, cp, src reflect.Value) {
	c.t.Helper()
	if a, ok := scalar(cp); ok {
		if b, _ := scalar(src); a != b {
			c.errorf(path, "copy holds %s, source %s", a, b)
		}
		return
	}
	switch cp.Kind() {
	case reflect.Array:
		for i := range cp.Len() {
			c.value(fmt.Sprintf("%s[%d]", path, i), cp.Index(i), src.Index(i))
		}
	case reflect.Slice:
		if cp.Len() != src.Len() {
			c.errorf(path, "copy has length %d, source %d", cp.Len(), src.Len())
			return
		}
		if cp.Cap() > 0 && src.Cap() > 0 && cp.Pointer() == src.Pointer() {
			c.errorf(path, "copy shares its backing array with the source")
			return
		}
		if cp.Cap() < src.Cap() {
			// A dropped reserve reallocates where the source would not.
			c.errorf(path, "copy has capacity %d, source %d", cp.Cap(), src.Cap())
		}
		for i := range cp.Len() {
			c.value(fmt.Sprintf("%s[%d]", path, i), cp.Index(i), src.Index(i))
		}
	case reflect.Map:
		if cp.Len() != src.Len() {
			c.errorf(path, "copy has %d entries, source %d", cp.Len(), src.Len())
			return
		}
		if !cp.IsNil() && cp.Pointer() == src.Pointer() {
			c.errorf(path, "copy shares its map with the source")
			return
		}
		for it := src.MapRange(); it.Next(); {
			k, _ := scalar(it.Key())
			v := cp.MapIndex(it.Key())
			if !v.IsValid() {
				c.errorf(path, "copy lacks key %s", k)
				continue
			}
			c.value(fmt.Sprintf("%s[%s]", path, k), v, it.Value())
		}
	case reflect.Pointer:
		if cp.IsNil() || src.IsNil() {
			if cp.IsNil() != src.IsNil() {
				c.errorf(path, "copy nil %v, source nil %v", cp.IsNil(), src.IsNil())
			}
			return
		}
		if cp.Pointer() == src.Pointer() {
			if _, ok := sharedImmutable[typeName(cp.Type().Elem())]; !ok {
				c.errorf(path, "copy shares a %s with the source", cp.Type())
			}
			return
		}
		key := visit{cp.Pointer(), src.Pointer(), cp.Type()}
		if !c.visited[key] {
			c.visited[key] = true
			c.value(path, cp.Elem(), src.Elem())
		}
	case reflect.Interface:
		if cp.IsNil() || src.IsNil() || cp.Elem().Type() != src.Elem().Type() {
			if cp.IsNil() != src.IsNil() || (!cp.IsNil() && cp.Elem().Type() != src.Elem().Type()) {
				c.errorf(path, "copy holds a different dynamic type than the source")
			}
			return
		}
		c.value(path, cp.Elem(), src.Elem())
	case reflect.Struct:
		typ := typeName(cp.Type())
		if _, ok := copyOnWrite[typ]; ok {
			c.chunkTable(path, cp, src)
			return
		}
		for i := range cp.NumField() {
			field := cp.Type().Field(i).Name
			if _, ok := copyAllowed[typ+"."+field]; ok {
				c.seen[typ+"."+field] = true
				continue
			}
			c.value(path+"."+field, cp.Field(i), src.Field(i))
		}
	default: // func, chan, unsafe pointer: no value to compare
		if !cp.IsNil() || !src.IsNil() {
			c.errorf(path, "%s field cannot be compared: copy it as nil or name it in copyAllowed", cp.Kind())
		}
	}
}

// chunkTable compares a copy-on-write table field by field, except that a
// chunk the copy and its source share is compared by the own bits: neither
// may own it.
func (c *fieldCmp) chunkTable(path string, cp, src reflect.Value) {
	c.t.Helper()
	cdir, sdir := cp.FieldByName("dir"), src.FieldByName("dir")
	cown, sown := cp.FieldByName("own"), src.FieldByName("own")
	if cdir.Len() != sdir.Len() || cown.Len() != cdir.Len() || sown.Len() != sdir.Len() {
		c.errorf(path, "copy has %d chunks (%d own bits), source %d (%d)", cdir.Len(), cown.Len(), sdir.Len(), sown.Len())
		return
	}
	for i := range cdir.Len() {
		if cdir.Index(i).Pointer() == sdir.Index(i).Pointer() && (cown.Index(i).Bool() || sown.Index(i).Bool()) {
			c.errorf(fmt.Sprintf("%s.dir[%d]", path, i), "copy and source share a chunk that one of them writes in place")
		}
	}
	for i := range cp.NumField() {
		switch name := cp.Type().Field(i).Name; name {
		case "dir":
			for j := range cdir.Len() {
				if cdir.Index(j).Pointer() != sdir.Index(j).Pointer() {
					c.value(fmt.Sprintf("%s.dir[%d]", path, j), cdir.Index(j), sdir.Index(j))
				}
			}
		default:
			c.value(path+"."+name, cp.Field(i), src.Field(i))
		}
	}
}
