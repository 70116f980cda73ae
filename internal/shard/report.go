package shard

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/stats"
)

// TenantReport is one tenant's end-to-end accounting, merged across shards.
type TenantReport struct {
	Name    string
	Offered uint64 // arrivals generated
	Shed    uint64 // rejected by admission control
	Done    uint64 // completed ops
	Mean    sim.VTime
	P50     sim.VTime
	P99     sim.VTime
	P999    sim.VTime
	// SLO accounting: target latency and the fraction of completed ops
	// that exceeded it (0 when no target is configured).
	SLO        sim.VTime
	SLOMissPct float64
}

// ShardReport is one shard's view — the imbalance row. Done, Checkpoints
// and MeanCkpt are read from Metrics, the shard's measured window: every
// completed op (its latency from arrival, split by kind and by checkpoint
// overlap), every checkpoint and the device, FTL and flash deltas.
type ShardReport struct {
	ID          int
	Done        uint64
	PeakQueue   int
	Checkpoints int
	MeanCkpt    sim.VTime
	LastDone    sim.VTime // completion offset of the shard's final op
	Metrics     *core.Metrics
	// Wall-clock phases (observational; excluded from Render so rendered
	// reports stay byte-comparable across machines and parallelism).
	LoadWall time.Duration
	RunWall  time.Duration
}

// Report is the result of one sharded run.
type Report struct {
	Shards      int
	Workers     int
	Sched       string
	Process     string
	RatePerSec  float64
	Fingerprint uint64

	Offered  uint64
	Admitted uint64
	Shed     uint64
	Done     uint64
	Elapsed  sim.VTime // virtual makespan: latest completion across shards

	Tenants   []TenantReport
	ShardRows []ShardReport

	// Wall is total run wall time; LoadWall the template load. Excluded
	// from Render.
	Wall     time.Duration
	LoadWall time.Duration
}

// report assembles the Report, merging per-tenant sketches across shards in
// shard order — the only cross-shard statistics operation, and a
// deterministic one.
func (s *ShardedDB) report(wall time.Duration) *Report {
	rep := &Report{
		Shards:      s.cfg.Shards,
		Workers:     s.cfg.Workers,
		Sched:       s.cfg.Sched,
		Process:     s.cfg.Arrival.Process,
		RatePerSec:  s.cfg.Arrival.RatePerSec,
		Fingerprint: s.fp,
		Wall:        wall,
		LoadWall:    s.tmplWall,
	}
	for ti, t := range s.cfg.Arrival.Tenants {
		var all stats.Histogram
		var done uint64
		for _, r := range s.shards {
			ta := &r.tenants[ti]
			done += ta.done
			all.Merge(&ta.allLat)
		}
		ps := all.Percentiles(50, 99, 99.9)
		tr := TenantReport{
			Name:    t.Name,
			Offered: s.offered[ti],
			Shed:    s.shed[ti],
			Done:    done,
			Mean:    sim.VTime(all.Mean()),
			P50:     sim.VTime(ps[0]),
			P99:     sim.VTime(ps[1]),
			P999:    sim.VTime(ps[2]),
			SLO:     t.SLO,
		}
		if t.SLO > 0 && done > 0 {
			tr.SLOMissPct = 100 * float64(all.CountAbove(uint64(t.SLO))) / float64(done)
		}
		rep.Tenants = append(rep.Tenants, tr)
		rep.Offered += tr.Offered
		rep.Shed += tr.Shed
		rep.Done += done
	}
	rep.Admitted = rep.Offered - rep.Shed
	for _, r := range s.shards {
		sr := ShardReport{
			ID:          r.id,
			Done:        r.m.Queries,
			PeakQueue:   r.qPeak,
			Checkpoints: r.m.Checkpoints(),
			MeanCkpt:    r.m.MeanCheckpointTime(),
			LastDone:    r.lastDone,
			Metrics:     r.m,
			LoadWall:    r.loadWall,
			RunWall:     r.runWall,
		}
		if sr.LastDone > rep.Elapsed {
			rep.Elapsed = sr.LastDone
		}
		rep.ShardRows = append(rep.ShardRows, sr)
	}
	return rep
}

// Render writes the deterministic report: configuration identity, totals,
// the per-tenant SLO table and the per-shard balance table. Wall-clock
// fields are deliberately absent — rendered reports byte-compare across
// GOMAXPROCS, shard parallelism on/off and machines.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "sharded run: %d shards x %d workers, %s arrivals @ %.0f/s, cksched=%s, config %016x\n",
		r.Shards, r.Workers, r.Process, r.RatePerSec, r.Sched, r.Fingerprint)
	fmt.Fprintf(w, "  offered %d  admitted %d  shed %d  done %d  makespan %v\n",
		r.Offered, r.Admitted, r.Shed, r.Done, r.Elapsed)
	fmt.Fprintf(w, "  %-8s %10s %8s %8s %10s %10s %10s %10s %10s %8s\n",
		"tenant", "offered", "shed", "done", "mean", "p50", "p99", "p99.9", "slo", "miss%")
	for _, t := range r.Tenants {
		slo := "-"
		miss := "-"
		if t.SLO > 0 {
			slo = t.SLO.String()
			miss = fmt.Sprintf("%.2f", t.SLOMissPct)
		}
		fmt.Fprintf(w, "  %-8s %10d %8d %8d %10v %10v %10v %10v %10s %8s\n",
			t.Name, t.Offered, t.Shed, t.Done, t.Mean, t.P50, t.P99, t.P999, slo, miss)
	}
	fmt.Fprintf(w, "  %-8s %10s %10s %8s %12s %12s\n",
		"shard", "done", "peakq", "ckpts", "mean-ckpt", "last-done")
	for _, s := range r.ShardRows {
		fmt.Fprintf(w, "  %-8s %10d %10d %8d %12v %12v\n",
			fmt.Sprintf("s%d", s.ID), s.Done, s.PeakQueue, s.Checkpoints, s.MeanCkpt, s.LastDone)
	}
}

// String renders the deterministic report to a string.
func (r *Report) String() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}
