package lsm

import (
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
)

// The compaction layer separates policy from mechanism, the amethystdb
// Director/Executor design: the director inspects the level/tier shapes and
// decides *what* to merge, the executor performs the k-way merge — read the
// inputs sequentially, merge to the newest version per key, write the output
// run sequentially, publish, delete the inputs. One compaction runs at a
// time; the director re-evaluates after each install so pressure cascades
// down the hierarchy deterministically.

// compactionJob is the director's verdict: merge inputs into outLevel.
type compactionJob struct {
	inputs   []*run
	levels   []int // levels the inputs come from (for removal)
	outLevel int
	major    bool
}

// director picks compactions under one of two policies.
//
//   - leveled: level 0 collects flush runs; when it holds fanIn runs they
//     merge with the whole next level into one run. A level overflowing its
//     byte budget merges into the level below. Read-optimized: each level
//     is at most one run, so a point read probes at most one run per level.
//   - tiered: each tier collects runs of similar age; when a tier holds
//     fanIn runs they merge into a single run one tier down. Write-optimized:
//     runs are never rewritten within a tier, at the cost of more runs to
//     probe on reads.
//
// Both fall back to a major compaction (everything into the base level)
// when the run area runs hot — the space back-pressure valve.
type director struct {
	policy string
	fanIn  int
	// baseBudget is level 1's byte budget under leveled; each deeper level
	// gets 4x the previous (the classic exponential ladder).
	baseBudget int64
}

func newDirector(policy string, walHalf int64) *director {
	if policy == "" {
		policy = PolicyLeveled
	}
	return &director{policy: policy, fanIn: 4, baseBudget: 2 * walHalf}
}

// budget returns level's byte budget under the leveled policy.
func (d *director) budget(level int) int64 {
	b := d.baseBudget
	for i := 1; i < level; i++ {
		b *= 4
	}
	return b
}

func levelBytes(runs []*run) int64 {
	var sum int64
	for _, r := range runs {
		sum += r.dataBytes()
	}
	return sum
}

// pick returns the next compaction to run, or nil. Evaluation order is
// fixed (top of the hierarchy first), so the decision is a pure function of
// the level shapes — determinism the differential oracle relies on.
func (d *director) pick(en *Engine, force bool) *compactionJob {
	if force || en.alloc.utilization() > 0.65 {
		return d.pickMajor(en)
	}
	switch d.policy {
	case PolicyTiered:
		return d.pickTiered(en)
	default:
		return d.pickLeveled(en)
	}
}

// pickLeveled merges level 0 into level 1 once enough flush runs pile up,
// then cascades any level that overflows its budget.
func (d *director) pickLeveled(en *Engine) *compactionJob {
	if len(en.levels[0]) >= d.fanIn {
		job := &compactionJob{outLevel: 1}
		for _, r := range en.levels[0] {
			job.inputs = append(job.inputs, r)
			job.levels = append(job.levels, 0)
		}
		for _, r := range en.levels[1] {
			job.inputs = append(job.inputs, r)
			job.levels = append(job.levels, 1)
		}
		return job
	}
	for level := 1; level < baseLevel-1; level++ {
		if len(en.levels[level]) == 0 || levelBytes(en.levels[level]) <= d.budget(level) {
			continue
		}
		job := &compactionJob{outLevel: level + 1}
		for _, r := range en.levels[level] {
			job.inputs = append(job.inputs, r)
			job.levels = append(job.levels, level)
		}
		for _, r := range en.levels[level+1] {
			job.inputs = append(job.inputs, r)
			job.levels = append(job.levels, level+1)
		}
		return job
	}
	return nil
}

// pickTiered merges any tier that accumulated fanIn runs into one run in
// the next tier, leaving the destination tier's runs untouched.
func (d *director) pickTiered(en *Engine) *compactionJob {
	for tier := 0; tier < baseLevel-1; tier++ {
		if len(en.levels[tier]) < d.fanIn {
			continue
		}
		job := &compactionJob{outLevel: tier + 1}
		for _, r := range en.levels[tier] {
			job.inputs = append(job.inputs, r)
			job.levels = append(job.levels, tier)
		}
		return job
	}
	return nil
}

// pickMajor folds every run into one base-level run (reclaims all
// superseded slots — maximum space recovery).
func (d *director) pickMajor(en *Engine) *compactionJob {
	job := &compactionJob{outLevel: baseLevel, major: true}
	for level := 0; level < maxLevels; level++ {
		for _, r := range en.levels[level] {
			job.inputs = append(job.inputs, r)
			job.levels = append(job.levels, level)
		}
	}
	if len(job.inputs) < 2 {
		return nil
	}
	return job
}

// maybeCompact asks the director for work and starts it; called after each
// flush install and after each compaction completes (the cascade).
func (en *Engine) maybeCompact() {
	en.startCompaction(false)
}

// startCompaction launches the executor for the director's next job.
// Returns false when there is nothing to do or one is already running.
func (en *Engine) startCompaction(force bool) bool {
	if en.compacting {
		return false
	}
	job := en.director.pick(en, force)
	if job == nil {
		return false
	}
	en.compacting = true
	en.compactDone = sim.NewFuture(en.Sim())
	done := en.compactDone
	en.Sim().Go("compaction", func(p *sim.Proc) {
		en.executeCompaction(p, job)
		en.compacting = false
		done.Complete()
		en.maybeCompact() // cascade
	})
	return true
}

// mergeRuns k-way merges the inputs' sorted key slices into one sorted
// entry list holding the newest version of every key, appended to out[:0].
// Each step takes the smallest head key across the inputs; the input
// holding it at the highest version supplies the entry, the earliest such
// input on a version tie, and every input at that key advances. The inputs
// hold at most keys distinct keys, so the output is first grown to the
// summed input length or keys, whichever is less, and a merge makes at
// most two allocations: the output, unless out has the room, and the
// per-input cursors. An out grown to keys entries never grows again.
func mergeRuns(out []runEntry, inputs []*run, keys int64) []runEntry {
	total := 0
	for _, r := range inputs {
		total += len(r.keys)
	}
	out = slices.Grow(out[:0], int(min(int64(total), keys)))
	pos := make([]int, len(inputs))
	for {
		best := -1
		var key int64
		for i, r := range inputs {
			if pos[i] == len(r.keys) {
				continue
			}
			k := r.keys[pos[i]]
			if best < 0 || k < key || (k == key && r.vers[pos[i]] > inputs[best].vers[pos[best]]) {
				best, key = i, k
			}
		}
		if best < 0 {
			return out
		}
		r, j := inputs[best], pos[best]
		out = append(out, runEntry{key: key, version: r.vers[j], size: int(r.sizes[j])})
		for i, r := range inputs {
			if pos[i] < len(r.keys) && r.keys[pos[i]] == key {
				pos[i]++
			}
		}
	}
}

// executeCompaction is the executor: stream the inputs up to the host,
// merge, stream the output run back down, publish the new run set, then
// delete the inputs. All I/O is large sequential host-side traffic — the
// shape the compaction experiment measures the checkpoint strategies under.
func (en *Engine) executeCompaction(p *sim.Proc, job *compactionJob) {
	const chunk = 256 << 10
	const window = 8

	// read every input run sequentially (windowed to model queue depth)
	dev := en.Device()
	futs := make([]*sim.Future, 0, window)
	var readBytes int64
	for _, r := range job.inputs {
		total := r.dataBytes()
		readBytes += total
		for off := int64(0); off < total; off += chunk {
			n := min(int64(chunk), total-off)
			p.Sleep(core.HostIOOverhead)
			futs = append(futs, dev.Read(r.offs[0]+off, n))
			if len(futs) >= window {
				core.WaitDevice(p, dev, futs...)
				futs = futs[:0]
			}
		}
	}
	core.WaitDevice(p, dev, futs...)

	en.merged = mergeRuns(en.merged, job.inputs, en.cfg.Keys)
	outs, ok := en.newRuns(job.outLevel, en.merged)
	if !ok {
		en.exhausted(p, "during compaction", entriesBytes(en.merged))
	}
	for _, out := range outs {
		en.writeRunSequential(p, out, ssd.AreaData)
		en.st.CompactionWrite += uint64(out.ext.len)
		en.st.RunsCreated++
	}

	en.st.Compactions++
	if job.major {
		en.st.MajorCompactions++
	}
	en.st.CompactionRead += uint64(readBytes)

	en.cfg.Injector.Hit(inject.SiteCompactInstall)

	// install: swap the inputs out and the merged runs in, then make the
	// new run set durable before the inputs' space is reclaimed.
	en.removeRuns(job)
	en.levels[job.outLevel] = append(en.levels[job.outLevel], outs...)
	for _, out := range outs {
		en.repoint(out, job.inputs)
	}
	en.installed()
	en.publishManifest(p, -1)

	// The publish dropped the inputs from the durable set: once each is
	// trimmed, its metadata is spare.
	for _, r := range job.inputs {
		core.WaitDevice(p, dev, dev.Deallocate(r.ext.off, r.ext.len))
		en.alloc.release(r.ext)
		en.st.RunsDeleted++
		en.recycle(r)
	}
}

// removeRuns drops the job's inputs from their levels, preserving the
// creation order of survivors.
func (en *Engine) removeRuns(job *compactionJob) {
	for level := range en.levels {
		keep := en.levels[level][:0]
		for _, r := range en.levels[level] {
			if !slices.Contains(job.inputs, r) {
				keep = append(keep, r)
			}
		}
		en.levels[level] = keep
	}
}

// String renders a job for panics and traces.
func (j *compactionJob) String() string {
	return fmt.Sprintf("compact(%d runs -> L%d, major=%v)", len(j.inputs), j.outLevel, j.major)
}
