// Package check is the crash-consistency verification subsystem: a
// model-based oracle, a crash-point fault injector, and a differential
// harness that together assert the five checkpointing strategies are
// *correct* — equal recovered state after a crash at any instrumented
// point — and only differ in cost.
//
//   - Model: per-key committed versions, fed by the engine's commit hook
//     the instant a group commit becomes durable: the ground truth for what
//     recovery must reproduce (the "committed prefix" of the op stream).
//   - Stack: the engine, compaction policy, mapping table and error
//     profile a repro line names; Stack.Schedule derives the whole crash
//     schedule from it.
//   - Census: a run with a counting-only injector records how many times
//     each inject.Site fires on a (strategy, seed, trace). The simulation
//     is deterministic, so the census is a complete schedule of crashable
//     instants.
//   - CrashMatrix: for every armed site the census saw, re-run the trace
//     with the injector armed to crash at chosen hits. At the crash instant
//     (deferred to an immediate scheduler slot so mid-event call chains
//     have restored their invariants) Validate checks that host recovery
//     equals the model's committed versions exactly, that the device's
//     SPOR rebuild (ftl.VerifySPOR) loses no durable state (volatile
//     write-buffer loss is reported separately and is legal), and that the
//     FTL invariants (ftl.CheckInvariants) hold.
//
// Every failure carries (strategy, seed, stack, site, hit): re-arming the
// same injector on the same seed reproduces it exactly.
package check

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Model is the reference oracle: per-key committed versions, maintained
// from the journal commit hook. After Load every key is at version 1; each
// committed update/delete advances its key.
type Model struct {
	committed []int64
}

// NewModel returns a model for a population of keys, all at version 0
// (not yet loaded).
func NewModel(keys int64) *Model {
	return &Model{committed: make([]int64, keys)}
}

// Loaded marks the whole population at version 1 (the bulk-load phase).
func (m *Model) Loaded() {
	for k := range m.committed {
		m.committed[k] = 1
	}
}

// Commit records that (key, version) became durable. Versions are
// monotonic per key, but group commits of different keys may interleave.
func (m *Model) Commit(key, version int64) {
	if version > m.committed[key] {
		m.committed[key] = version
	}
}

// Committed returns the per-key committed versions (the live slice — do
// not mutate).
func (m *Model) Committed() []int64 { return m.committed }

// Stack names one simulated stack by the four values a repro line carries
// in checkin-sim's -engine, -compaction, -ftlmap and -errors flags. An empty
// field means the flag's default: journal, leveled, dram, off. The journal
// engine ignores the compaction policy.
type Stack struct {
	Engine, Compaction, FTLMap, Errors string
}

// norm fills in the defaults, so stacks that run alike compare equal. Error
// profile names match in any case, as checkin.ParseErrorProfile reads them.
func (s Stack) norm() Stack {
	s = Stack{cmp.Or(s.Engine, "journal"), cmp.Or(s.Compaction, "leveled"), cmp.Or(s.FTLMap, "dram"), cmp.Or(strings.ToLower(s.Errors), "off")}
	if s.Engine != "lsm" {
		s.Compaction = "leveled"
	}
	return s
}

// String names the stack engine[-policy]/ftlmap/errors, such as
// lsm-tiered/dftl/heavy.
func (s Stack) String() string {
	s = s.norm()
	if s.Engine == "lsm" {
		s.Engine += "-" + s.Compaction
	}
	return s.Engine + "/" + s.FTLMap + "/" + s.Errors
}

// Options is one stack's crash schedule: the verification workload, the
// layer bounds that make its crash points fire at verification scale, the
// sites CrashMatrix arms (in site order) and the coverage every census must
// show. Build it with Stack.Schedule: the tests and checkin-sim
// -crashpoints both do, so a repro line, which names the stack, replays the
// schedule that failed.
type Options struct {
	Stack
	Keys         int64
	Ops, Threads int
	Sites        []inject.Site
	Must         Coverage
	// CrashesPerSite bounds the hits of each site crash-tested per
	// (strategy, seed). CMTEntries and MemtableEntries bound a
	// flash-resident map's CMT and the LSM memtable (0: the layer default).
	CrashesPerSite, CMTEntries, MemtableEntries int
	// FaultSpares raises the spare-block reserve per die under an error
	// profile to this many, added on top of the working blocks (0 or
	// fewer than the profile reserves: the profile's reserve).
	FaultSpares int
}

// Coverage is what a census must show. Every lists the sites every census
// hits; Remap and Copy add those every census of a remap strategy (ISC-C,
// Check-In) or of a copy strategy (ISC-A, ISC-B) hits. Some lists the sites
// at least one census of a table row hits; Never those no census hits.
type Coverage struct {
	Every, Remap, Copy, Some, Never []inject.Site
}

// union returns c with d's sites added.
func (c Coverage) union(d Coverage) Coverage {
	return Coverage{union(c.Every, d.Every), union(c.Remap, d.Remap), union(c.Copy, d.Copy),
		union(c.Some, d.Some), union(c.Never, d.Never)}
}

// union returns the sites of a and b, in site order.
func union(a, b []inject.Site) []inject.Site {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}

// axis is what one value of a stack axis adds to the schedule. Schedule
// folds in the axis of each of the stack's values: the longest trace, the
// largest bounds, and the union of the armed sites and of the coverage.
type axis struct {
	ops, cmt, memtable int
	// faultSpares is the spare-block reserve per die this value needs to
	// stay writable through the trace under an error profile.
	faultSpares int
	// arm lists the sites crash-tested under this value; a stack that no
	// value narrows arms every site.
	arm  []inject.Site
	must Coverage
}

// flashMap is the axis of a flash-resident mapping table (dftl,
// dftl-basic): a CMT of two translation pages' entries (the minimum at 4 KB
// pages), which the remap strategies' 512-byte units overflow, so victims
// are written back (trans-evict); a longer trace for translation-block
// churn; the three translation-page sites armed, plus three core sites.
// Under the heavy profile the longer trace on Build's smaller flash-map
// geometry retires more blocks than the profile's four spares per die, and
// the device would end the trace read-only. Faults get twenty, added on top
// of the working blocks: at 8, 12 and 16 spares 70, 15 and 1 of the 210
// censuses of the six heavy flash-map stacks (five strategies, seeds 1-7)
// still ended read-only, at 20 none did, the least of them with 16 spares
// left.
// trans-gc needs GC to dig into a block still holding live translation
// pages, which only NAND faults bring about at this scale; the FTL layer
// covers it (TestTransGCCrashConsistency in internal/ftl).
var flashMap = axis{ops: 9000, cmt: 1024, faultSpares: 20,
	arm: []inject.Site{inject.SiteTransFlush, inject.SiteTransEvict, inject.SiteTransGC,
		inject.SiteJournalCommit, inject.SiteCheckpointApply, inject.SiteGCMigrate},
	must: Coverage{Every: []inject.Site{inject.SiteTransFlush}, Remap: []inject.Site{inject.SiteTransEvict}}}

// faultSites are the crash points the heavy error profile arms: the four fault
// sites (mid retry ladder, program-failure restage, erase-failure
// retirement, bad-block migration) plus two core sites.
var faultSites = []inject.Site{inject.SiteReadRetry, inject.SiteProgramFail, inject.SiteEraseFail,
	inject.SiteBadBlockRetire, inject.SiteJournalCommit, inject.SiteCheckpointApply}

// common is the axis every stack folds in. The wear-level site is covered
// at the FTL layer (TestWearLevelCrashConsistency in internal/ftl): the
// full-stack workload rarely reaches an idle window.
var common = axis{ops: 3000, must: Coverage{
	Every: []inject.Site{inject.SiteDeallocate, inject.SiteGCMigrate},
	Remap: []inject.Site{inject.SiteCheckpointRemap}, Copy: []inject.Site{inject.SiteCheckpointCopy}}}

// axes holds the axis of every value a Stack field takes; the compaction
// policies add nothing. Erase failures depend on how often a strategy
// erases at all (ISC-C and Check-In rarely do at this scale), so they are
// asserted per row.
var axes = map[string]axis{
	"journal": {must: Coverage{
		Every: []inject.Site{inject.SiteJournalAppend, inject.SiteJournalCommit, inject.SiteCheckpointCut, inject.SiteCheckpointApply},
		Never: []inject.Site{inject.SiteWALAppend, inject.SiteWALCommit, inject.SiteMemFlush, inject.SiteCompactInstall, inject.SiteManifestPublish}}},
	// The LSM's small memtable and longer trace cross many flush epochs
	// and several compactions.
	"lsm": {ops: 6000, memtable: 256, arm: inject.Sites(), must: Coverage{
		Every: []inject.Site{inject.SiteWALAppend, inject.SiteWALCommit, inject.SiteMemFlush, inject.SiteCompactInstall, inject.SiteManifestPublish},
		Never: []inject.Site{inject.SiteJournalAppend, inject.SiteJournalCommit, inject.SiteCheckpointCut, inject.SiteCheckpointApply}}},
	"dram": {must: Coverage{Every: []inject.Site{inject.SiteMetaFlush},
		Never: []inject.Site{inject.SiteTransFlush, inject.SiteTransEvict, inject.SiteTransGC}}},
	"dftl":       flashMap,
	"dftl-basic": flashMap,
	"off": {must: Coverage{
		Never: []inject.Site{inject.SiteReadRetry, inject.SiteProgramFail, inject.SiteEraseFail, inject.SiteBadBlockRetire}}},
	"heavy": {arm: faultSites, must: Coverage{
		Every: []inject.Site{inject.SiteReadRetry, inject.SiteProgramFail, inject.SiteBadBlockRetire},
		Some:  []inject.Site{inject.SiteEraseFail}}},
}

// Schedule derives the stack's crash schedule. One (strategy, seed) of it,
// census plus every armed run, takes well under a second of wall clock
// while driving group commits, checkpoints on both triggers, deallocation,
// GC, and whatever each of the stack's values adds.
func (s Stack) Schedule() Options {
	o := Options{Stack: s.norm(), Keys: 1500, Threads: 4, CrashesPerSite: 2}
	for _, a := range []axis{common, axes[o.Engine], axes[o.Compaction], axes[o.FTLMap], axes[o.Errors]} {
		o.Ops, o.CMTEntries, o.MemtableEntries = max(o.Ops, a.ops), max(o.CMTEntries, a.cmt), max(o.MemtableEntries, a.memtable)
		if o.Errors != "off" {
			o.FaultSpares = max(o.FaultSpares, a.faultSpares)
		}
		o.Sites = union(o.Sites, a.arm)
		o.Must = o.Must.union(a.must)
	}
	if o.Sites == nil {
		o.Sites = inject.Sites()
	}
	return o
}

// Mix is the verification workload: write-heavy so the journal and
// checkpoint paths dominate, with deletes so tombstones ride along.
var Mix = workload.Mix{ReadPct: 25, UpdatePct: 60, RMWPct: 10, DeletePct: 5}

// sizer spans the interesting log classes at the 512-byte remap unit:
// sub-unit logs (padded / merged partials), exactly-unit logs, and
// larger-than-unit logs (compressed FULL).
func sizer() checkin.Sizer {
	return checkin.MixedRecords("check-mix",
		[]int{96, 180, 256, 480, 512, 1100, 1900},
		[]int{2, 2, 2, 2, 1, 1, 1})
}

// NewTrace records the operation stream for one seed. All strategies and
// all crash runs of that seed replay this byte-identical trace.
func NewTrace(opts Options, seed int64) (*checkin.Trace, error) {
	return checkin.RecordWorkload(opts.Keys, sizer(), Mix, true, opts.Ops, seed)
}

// Build opens a reduced-scale DB for strategy with the given injector
// threaded through every layer, and installs a fresh Model on the commit
// hook. The flash geometry is small enough (16 MB raw) that the trace
// forces garbage collection and metadata flushes.
func Build(strategy checkin.Strategy, seed int64, opts Options, inj *inject.Injector) (*checkin.DB, *Model, error) {
	cfg, err := buildConfig(strategy, seed, opts, inj)
	if err != nil {
		return nil, nil, err
	}
	return open(cfg)
}

// open opens cfg as Build does: with the mapping oracle armed under a
// flash-resident map, and a fresh Model on the commit hook.
func open(cfg checkin.Config) (*checkin.DB, *Model, error) {
	db, err := checkin.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.FTLMap == "dftl" || cfg.FTLMap == "dftl-basic" {
		// Every verification build runs with the differential mapping
		// oracle armed: a coherence divergence panics at the faulting
		// access instead of surfacing as a downstream validation diff.
		db.Device().FTL().EnableMapOracle()
	}
	model := NewModel(cfg.Keys)
	db.Host().SetCommitHook(model.Commit)
	return db, model, nil
}

// buildConfig is the configuration Build opens.
func buildConfig(strategy checkin.Strategy, seed int64, opts Options, inj *inject.Injector) (checkin.Config, error) {
	cfg := checkin.DefaultConfig()
	cfg.Strategy = strategy
	cfg.Seed = seed
	cfg.Channels, cfg.DiesPerChannel, cfg.PlanesPerDie = 2, 2, 1
	cfg.BlocksPerPlane, cfg.PagesPerBlock, cfg.PageSizeBytes = 32, 32, 4096
	cfg.Keys, cfg.Records = opts.Keys, sizer()
	cfg.JournalHalfMB, cfg.DataCacheMB = 1, 1
	cfg.CheckpointInterval = 25 * time.Millisecond
	cfg.WearDeltaThreshold = 3
	cfg.Injector = inj
	cfg.Engine, cfg.Compaction, cfg.MemtableEntries = opts.Engine, opts.Compaction, opts.MemtableEntries
	cfg.FTLMap, cfg.CMTEntries = opts.FTLMap, opts.CMTEntries
	flashMap := opts.FTLMap == "dftl" || opts.FTLMap == "dftl-basic"
	if flashMap {
		// Tighter free-space margin so GC pressure stays high with the
		// translation stream competing for blocks.
		cfg.BlocksPerPlane = 24
		// Conventional 4KB-unit strategies touch only a few hundred
		// distinct luns at verification scale — less than one default
		// writeback batch — so scale the dirty-entry threshold to the
		// mapping footprint. Sub-page strategies keep the default: their
		// working set is large enough to exercise both the threshold
		// flush and the LRU dirty-tail eviction.
		if strategy.DefaultMappingUnit() == cfg.PageSizeBytes {
			cfg.MetaFlushEntries = 64
		}
	}
	if opts.Errors != "off" {
		profile, err := checkin.ParseErrorProfile(opts.Errors)
		if err != nil {
			return cfg, err
		}
		cfg = profile.Apply(cfg)
		if extra := opts.FaultSpares - cfg.SpareBlocksPerDie; extra > 0 {
			// The extra spares come on top of the working blocks, so the
			// free-space margin, and with it the GC pressure, stays the
			// geometry's.
			cfg.SpareBlocksPerDie = opts.FaultSpares
			cfg.BlocksPerPlane += (extra + cfg.PlanesPerDie - 1) / cfg.PlanesPerDie
		}
	}
	return cfg, nil
}

// Validate performs the three crash-point checks against db's current
// state. It is pure — callable from inside a simulation event.
func Validate(db *checkin.DB, model *Model) error {
	recovered := db.Host().Recovery().Recovered
	want := model.Committed()
	diffs := 0
	var first string
	for k := range want {
		if recovered[k] != want[k] {
			if diffs == 0 {
				first = fmt.Sprintf("key %d: recovered version %d, model committed %d", k, recovered[k], want[k])
			}
			diffs++
		}
	}
	if diffs > 0 {
		return fmt.Errorf("host recovery diverges from reference model at %d keys (first: %s)", diffs, first)
	}
	if rep := db.Device().FTL().VerifySPOR(); rep.Mismatches != 0 {
		return fmt.Errorf("device SPOR rebuild lost durable state: %s", rep)
	}
	return db.Device().FTL().CheckInvariants()
}

// replay runs the recorded trace, then leaves the device idle for 50 ms: a
// run ends at its last event, and for the remap strategies the trace fires
// gc-migrate only in the deallocator's idle-window GC. The idle step keeps
// that site in the census and in the armed runs, which replay through here.
func replay(db *checkin.DB, tr *checkin.Trace, opts Options) error {
	_, err := db.Run(checkin.RunSpec{
		Threads:      opts.Threads,
		TotalQueries: int64(len(tr.Ops)),
		Trace:        tr,
	})
	if err == nil {
		db.Sim().RunUntil(db.Sim().Now() + 50*sim.Millisecond)
	}
	return err
}

// Census is the per-site hit schedule of one (strategy, seed, trace): how
// many times each site fired during the measured run (load-phase hits
// excluded — crashes are only armed after Load).
type Census struct {
	RunHits [inject.NumSites]int
	// Health is the device's at the end of the run.
	Health ftl.Health
}

// RunCensus replays the trace under a counting-only injector. The final
// state is also validated (a crash-free run must trivially pass) and the
// model returned for the equivalence check.
func RunCensus(strategy checkin.Strategy, seed int64, tr *checkin.Trace, opts Options) (*Census, *Model, *checkin.DB, error) {
	inj := inject.New()
	db, model, err := Build(strategy, seed, opts, inj)
	if err != nil {
		return nil, nil, nil, err
	}
	db.Load()
	model.Loaded()
	loadHits := inj.Counts()
	if err := replay(db, tr, opts); err != nil {
		return nil, nil, nil, err
	}
	c := &Census{Health: db.Health()}
	for i, n := range inj.Counts() {
		c.RunHits[i] = n - loadHits[i]
	}
	if err := Validate(db, model); err != nil {
		return nil, nil, nil, fmt.Errorf("crash-free run failed validation (strategy=%s seed=%d): %w", strategy, seed, err)
	}
	return c, model, db, nil
}

// CrashResult is the outcome of one armed run.
type CrashResult struct {
	Strategy checkin.Strategy
	Seed     int64
	Stack    Stack
	Site     inject.Site
	Hit      int // 1-based hit index within the measured run
	Fired    bool
	Err      error
}

// Repro renders the one-command reproduction line; stack flags appear
// only where they differ from checkin-sim's defaults.
func (r CrashResult) Repro() string {
	line := fmt.Sprintf("checkin-sim -crashpoints -strategy=%s -seed=%d -site=%s -hit=%d",
		r.Strategy, r.Seed, r.Site, r.Hit)
	s, def := r.Stack.norm(), Stack{}.norm()
	for _, f := range []struct{ flag, v, def string }{
		{"errors", s.Errors, def.Errors}, {"ftlmap", s.FTLMap, def.FTLMap},
		{"engine", s.Engine, def.Engine}, {"compaction", s.Compaction, def.Compaction},
	} {
		if f.v != f.def {
			line += fmt.Sprintf(" -%s=%s", f.flag, f.v)
		}
	}
	return line
}

func (r CrashResult) String() string {
	status := "ok"
	switch {
	case !r.Fired:
		status = "site did not fire"
	case r.Err != nil:
		status = "FAIL: " + r.Err.Error()
	}
	return fmt.Sprintf("(seed=%d, site=%s#%d, strategy=%s, stack=%s): %s", r.Seed, r.Site, r.Hit, r.Strategy, r.Stack, status)
}

// RunCrash replays the trace with a crash armed at the hit-th firing of
// site after Load (hit is 1-based). At the crash instant the full state
// validation runs; the simulation then continues to completion so the
// armed run's hit counting stays comparable to the census.
func RunCrash(strategy checkin.Strategy, seed int64, site inject.Site, hit int, tr *checkin.Trace, opts Options) CrashResult {
	res := CrashResult{Strategy: strategy, Seed: seed, Stack: opts.Stack, Site: site, Hit: hit}
	inj := inject.New()
	db, model, err := Build(strategy, seed, opts, inj)
	if err != nil {
		res.Err = err
		return res
	}
	db.Load()
	model.Loaded()
	eng := db.Sim()
	inj.Arm(site, hit-1,
		func(fire func()) { eng.Schedule(0, fire) },
		func(s inject.Site, n int) {
			if err := Validate(db, model); err != nil {
				res.Err = fmt.Errorf("%s: %w", res.Repro(), err)
			}
		})
	if err := replay(db, tr, opts); err != nil {
		res.Err = err
		return res
	}
	_, _, res.Fired = inj.Fired()
	return res
}

// CrashMatrix runs the full schedule for one (strategy, seed): a census,
// then up to CrashesPerSite armed runs per armed site that fired, sampling
// hits evenly across each site's schedule (first, middle, last...). The
// census is returned so callers can assert site coverage.
func CrashMatrix(strategy checkin.Strategy, seed int64, tr *checkin.Trace, opts Options) ([]CrashResult, *Census, error) {
	census, _, _, err := RunCensus(strategy, seed, tr, opts)
	if err != nil {
		return nil, nil, err
	}
	var results []CrashResult
	for _, site := range opts.Sites {
		for _, hit := range sampleHits(census.RunHits[site], opts.CrashesPerSite) {
			results = append(results, RunCrash(strategy, seed, site, hit, tr, opts))
		}
	}
	return results, census, nil
}

// sampleHits picks up to k distinct 1-based hit indexes spread over [1, n]:
// always the first and last firing, with the rest evenly between.
func sampleHits(n, k int) []int {
	k = max(k, 1)
	out := make([]int, 0, min(n, k))
	switch {
	case n <= k:
		for h := 1; h <= n; h++ {
			out = append(out, h)
		}
	case k == 1:
		out = append(out, (n+1)/2)
	default: // n > k: steps of at least one, so the hits are distinct
		for i := range k {
			out = append(out, 1+i*(n-1)/(k-1))
		}
	}
	return out
}

// Epoch is what a crash reconstructs at one checkpoint epoch: the
// recovered-version vector, and the payload bytes logged so far.
type Epoch struct {
	Recovered []int64
	Logged    uint64
}

// EpochSignatures is the cross-backend differential driver: one client
// applies the trace sequentially through the HostEngine interface, and
// every epochEvery operations it syncs, cuts a checkpoint epoch, and
// captures the Epoch. Two backends fed the same trace must produce
// identical sequences — same committed prefix and same logged bytes at
// every epoch — regardless of how differently they lay the data out. The
// final state is also fully validated against the reference model.
func EpochSignatures(strategy checkin.Strategy, seed int64, tr *checkin.Trace, opts Options, epochEvery int) ([]Epoch, error) {
	db, model, err := Build(strategy, seed, opts, inject.New())
	if err != nil {
		return nil, err
	}
	db.Load()
	model.Loaded()
	host := db.Host()
	eng := db.Sim()

	var epochs []Epoch
	var fail error
	eng.Go("equivalence-driver", func(p *sim.Proc) {
		for i, op := range tr.Ops {
			core.Apply(host, p, op)
			if (i+1)%epochEvery == 0 {
				host.Sync(p)
				p.Wait(host.TriggerCheckpoint())
				sig := host.Recovery().Recovered
				// Every epoch's recovered state must already equal the
				// model's committed prefix (after Sync they coincide).
				for k := range sig {
					if sig[k] != model.Committed()[k] {
						fail = fmt.Errorf("epoch %d: recovered[%d]=%d, model committed %d",
							len(epochs), k, sig[k], model.Committed()[k])
						return
					}
				}
				epochs = append(epochs, Epoch{sig, host.JournalStats().PayloadBytes})
			}
		}
	})
	if err := eng.RunToIdle(); err != nil {
		return nil, fmt.Errorf("equivalence driver: %w", err)
	}
	if fail != nil {
		return nil, fail
	}
	if err := Validate(db, model); err != nil {
		return nil, fmt.Errorf("final validation: %w", err)
	}
	return epochs, nil
}
