// Package inject provides named crash-injection sites for the
// crash-consistency verification subsystem (internal/check).
//
// The storage stack instruments the moments where a power failure has
// interesting consequences — journal appends and group commits, the
// checkpoint cut/remap/apply/trim sequence, mapping-metadata flushes, GC
// victim collection, wear-leveling moves — by calling Injector.Hit with the
// site's name. An Injector is either counting (a census of how often each
// site fires on a given workload) or armed (crash on the Nth hit of one
// site). Both modes count hits identically, so a schedule derived from a
// census run replays exactly on an armed run of the same configuration:
// any failure reproduces from (seed, site-index).
//
// The package is a dependency leaf: core, ftl and ssd all import it, and a
// nil *Injector is a valid no-op so production paths pay one nil check.
package inject

import "fmt"

// Site names one instrumented crash point.
type Site uint8

// The injection-site catalog. Adding a site here automatically enrolls it
// in the differential crash matrix (internal/check walks Sites()).
const (
	// SiteJournalAppend fires after a journal log is buffered in the JMT
	// but before its group commit: the log is volatile and must NOT be
	// recovered.
	SiteJournalAppend Site = iota
	// SiteJournalCommit fires when a group commit's flush completes: every
	// log of the batch is durable and MUST be recovered.
	SiteJournalCommit
	// SiteCheckpointCut fires after the journal rotates onto the alternate
	// half and the old half's tail is durable (core/journal.go
	// CutForCheckpoint).
	SiteCheckpointCut
	// SiteCheckpointCopy fires in the device after a CoW / multi-CoW
	// checkpoint command's copies are issued (ISC-A / ISC-B service).
	SiteCheckpointCopy
	// SiteCheckpointRemap fires in the device after a checkpoint-request
	// command's Algorithm 1 remap loop (ISC-C / Check-In service).
	SiteCheckpointRemap
	// SiteCheckpointApply fires after the engine applies a finished
	// checkpoint (ckpted versions advanced) but before the journal half is
	// deallocated.
	SiteCheckpointApply
	// SiteDeallocate fires after the device trims a logical range (journal
	// deletion after checkpointing).
	SiteDeallocate
	// SiteMetaFlush fires when the FTL programs a mapping-metadata page.
	SiteMetaFlush
	// SiteGCMigrate fires after a GC victim's valid slots have migrated
	// and the victim block has been erased.
	SiteGCMigrate
	// SiteWearLevel fires after a static wear-leveling migration.
	SiteWearLevel

	// The NAND-fault sites below fire only when the reliability model is
	// enabled (nonzero error rates); census runs without it show zero hits
	// and the matrix skips them.

	// SiteReadRetry fires after a read-retry ladder completes (correctable
	// or soft-decision recovered) — a crash here lands mid-read-recovery.
	SiteReadRetry
	// SiteProgramFail fires after a failed page program's buffer has been
	// restaged on a fresh frontier block and the mapping rebound.
	SiteProgramFail
	// SiteEraseFail fires after a GC erase reports FAIL and the victim is
	// retired in place of being freed.
	SiteEraseFail
	// SiteBadBlockRetire fires after a bad block's live data has migrated
	// and a spare (if any) replaced it — a crash here lands mid-way through
	// draining the retirement queue.
	SiteBadBlockRetire

	// The translation-page sites below fire only under -ftlmap=dftl or
	// dftl-basic (the flash-resident mapping table); dram-mode census runs
	// show zero hits and the matrix skips them.

	// SiteTransFlush fires after a dirty-threshold translation-page
	// writeback: a batch of dirty CMT entries is durable on a fresh
	// translation page and the directory points at it.
	SiteTransFlush
	// SiteTransEvict fires after a CMT capacity eviction wrote back the
	// victim's dirty translation page.
	SiteTransEvict
	// SiteTransGC fires after GC migrated a live translation page out of a
	// victim block (data and translation blocks share the victim index).
	SiteTransGC

	// The LSM-engine sites below fire only under -engine=lsm (the
	// write-ahead-log → memtable → sorted-run backend in internal/lsm);
	// journal-engine census runs show zero hits and the matrix skips them.

	// SiteWALAppend fires after a write is buffered in the memtable and its
	// WAL record queued, before the group commit: the write is volatile and
	// must NOT be recovered.
	SiteWALAppend
	// SiteWALCommit fires when a WAL group commit's flush completes: every
	// record of the batch is durable and MUST be recovered.
	SiteWALCommit
	// SiteMemFlush fires after a flushed memtable's sorted run is durable on
	// flash but before the manifest publishes it: the run is an orphan, and
	// recovery must reconstruct its entries from the WAL instead.
	SiteMemFlush
	// SiteCompactInstall fires after a compaction's merged output run is
	// durable but before the manifest swap removes its inputs: both old and
	// new runs coexist and recovery must still see exactly the old manifest.
	SiteCompactInstall
	// SiteManifestPublish fires after a manifest slot write+flush is durable:
	// the new run set is authoritative and the superseded WAL prefix is
	// logically truncated.
	SiteManifestPublish

	// NumSites is the catalog size.
	NumSites
)

// NoSite names no site: Hit ignores it. A component that fires a site only
// in some configurations passes it in the others.
const NoSite = NumSites

// String returns the site's stable name (used in reports and repro lines).
func (s Site) String() string {
	switch s {
	case SiteJournalAppend:
		return "journal-append"
	case SiteJournalCommit:
		return "journal-commit"
	case SiteCheckpointCut:
		return "ckpt-cut"
	case SiteCheckpointCopy:
		return "ckpt-copy"
	case SiteCheckpointRemap:
		return "ckpt-remap"
	case SiteCheckpointApply:
		return "ckpt-apply"
	case SiteDeallocate:
		return "dealloc"
	case SiteMetaFlush:
		return "meta-flush"
	case SiteGCMigrate:
		return "gc-migrate"
	case SiteWearLevel:
		return "wear-level"
	case SiteReadRetry:
		return "read-retry"
	case SiteProgramFail:
		return "program-fail"
	case SiteEraseFail:
		return "erase-fail"
	case SiteBadBlockRetire:
		return "bad-block-retire"
	case SiteTransFlush:
		return "trans-flush"
	case SiteTransEvict:
		return "trans-evict"
	case SiteTransGC:
		return "trans-gc"
	case SiteWALAppend:
		return "wal-append"
	case SiteWALCommit:
		return "wal-commit"
	case SiteMemFlush:
		return "mem-flush"
	case SiteCompactInstall:
		return "compact-install"
	case SiteManifestPublish:
		return "manifest-publish"
	default:
		return fmt.Sprintf("site(%d)", uint8(s))
	}
}

// Sites returns the full catalog in site-index order.
func Sites() []Site {
	out := make([]Site, NumSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// ParseSite resolves a site from its name.
func ParseSite(name string) (Site, error) {
	for _, s := range Sites() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("inject: unknown site %q", name)
}

// Injector counts site hits and, when armed, fires a crash callback on a
// chosen hit of a chosen site. All methods are nil-receiver safe.
type Injector struct {
	counts [NumSites]int

	armed    bool
	target   Site
	skip     int // hits of target to let pass before firing
	fired    bool
	firedHit int

	// deferFire, when set, receives the crash callback instead of it
	// running inline: the harness passes sim.Engine.Schedule(0, ·) so the
	// crash evaluates at the same virtual instant but after the current
	// event callback returns, when deep call chains (a metadata flush
	// inside a GC migration inside a host write) have restored their
	// invariants. Hit counting is unaffected.
	deferFire func(func())
	onCrash   func(site Site, hit int)
}

// New returns a counting-only injector (a census run).
func New() *Injector { return &Injector{} }

// Arm configures the injector to fire onCrash on the (skip+1)-th future hit
// of target. deferFire, when non-nil, defers the callback to a scheduler
// slot at the same virtual time (see the field comment). Arm must be called
// before the run starts; hits recorded so far are not counted against skip.
func (in *Injector) Arm(target Site, skip int, deferFire func(func()), onCrash func(Site, int)) {
	if onCrash == nil {
		panic("inject: Arm with nil onCrash")
	}
	in.armed = true
	in.target = target
	in.skip = skip
	in.deferFire = deferFire
	in.onCrash = onCrash
}

// Hit records that execution passed site s, firing the armed crash callback
// if this is the scheduled hit. Nil-safe: a nil injector is a no-op.
func (in *Injector) Hit(s Site) {
	if in == nil || s == NoSite {
		return
	}
	in.counts[s]++
	if !in.armed || in.fired || s != in.target {
		return
	}
	if in.skip > 0 {
		in.skip--
		return
	}
	in.fired = true
	in.firedHit = in.counts[s]
	hit := in.firedHit
	fire := func() { in.onCrash(s, hit) }
	if in.deferFire != nil {
		in.deferFire(fire)
		return
	}
	fire()
}

// Hits returns how many times site s fired so far.
func (in *Injector) Hits(s Site) int {
	if in == nil {
		return 0
	}
	return in.counts[s]
}

// Counts returns the per-site hit counts in site-index order.
func (in *Injector) Counts() []int {
	out := make([]int, NumSites)
	if in != nil {
		copy(out, in.counts[:])
	}
	return out
}

// Fired reports whether the armed crash fired, and at which hit.
func (in *Injector) Fired() (site Site, hit int, ok bool) {
	if in == nil || !in.fired {
		return 0, 0, false
	}
	return in.target, in.firedHit, true
}
