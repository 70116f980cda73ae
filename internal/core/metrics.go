package core

import (
	"fmt"
	"strings"

	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Metrics collects everything one measured run produces: per-query latency
// histograms split by kind and by checkpoint overlap, checkpoint durations,
// and before/after snapshots of device, FTL and flash counters so that all
// amplification numbers cover exactly the measured window.
type Metrics struct {
	Elapsed sim.VTime

	Queries      uint64
	ReadQueries  uint64
	WriteQueries uint64
	// WriteQueryPayload is the raw bytes write queries asked to store —
	// the denominator of the paper's amplification figures.
	WriteQueryPayload uint64

	ReadLat      stats.Histogram
	WriteLat     stats.Histogram
	ReadLatCkpt  stats.Histogram // reads overlapping a checkpoint
	WriteLatCkpt stats.Histogram
	AllLat       stats.Histogram

	// CkptDur is a streaming histogram of checkpoint durations (ns). Its
	// exact count/sum/max replace the unbounded per-checkpoint slice the
	// metrics used to keep: a multi-hour trace with tight checkpoint
	// intervals now costs O(1) memory. MeanCheckpointTime stays
	// bit-identical — the same integer sum over the same count.
	CkptDur stats.Histogram

	// RejectedWrites counts write queries refused because the device
	// degraded to read-only mode (NAND spare pool exhausted).
	RejectedWrites uint64

	// Timeline holds periodic samples when RunSpec.SampleInterval is set.
	Timeline *stats.Timeline

	startDev  ssd.Stats
	startFtl  ftl.Stats
	startNand nand.Stats
	startTime sim.VTime
	// timing prices the window's flash operations (FlashEnergyMJ).
	timing nand.Timing

	EndDev  ssd.Stats
	EndFtl  ftl.Stats
	EndNand nand.Stats

	JournalStart JournalStats
	JournalEnd   JournalStats

	// closed is set by EndWindow: the collector belongs to the window it
	// measured and is never written again (see Base.Metrics).
	closed bool
}

// NewMetrics returns an empty collector. Every host engine fills one through
// the window and note methods, so all backends report in one format.
func NewMetrics() *Metrics { return &Metrics{} }

// BeginWindow opens a measured window: it drops whatever the collector
// recorded before and snapshots device, FTL and flash counters. jr carries
// the journaling-layer counters at the same instant (an LSM backend
// reports its WAL counters through the same shape).
func (m *Metrics) BeginWindow(dev *ssd.Device, jr JournalStats, now sim.VTime) {
	*m = Metrics{}
	m.startDev = dev.Stats()
	m.startFtl = dev.FTL().Stats()
	m.startNand = dev.FTL().Array().Stats()
	m.timing = dev.FTL().Array().Timing()
	m.JournalStart = jr
	m.startTime = now
}

// EndWindow closes the measured window opened by BeginWindow; endTime is
// the window's last completion.
func (m *Metrics) EndWindow(dev *ssd.Device, jr JournalStats, endTime sim.VTime) {
	m.closed = true
	m.EndDev = dev.Stats()
	m.EndFtl = dev.FTL().Stats()
	m.EndNand = dev.FTL().Array().Stats()
	m.JournalEnd = jr
	if endTime > m.startTime {
		m.Elapsed = endTime - m.startTime
	}
}

// NoteQuery records one finished query.
func (m *Metrics) NoteQuery(op workload.Op, lat sim.VTime, duringCkpt bool) {
	m.Queries++
	m.AllLat.Record(uint64(lat))
	isWrite := op.Kind != workload.OpRead && op.Kind != workload.OpScan
	if isWrite {
		m.WriteQueries++
		m.WriteQueryPayload += uint64(op.Size)
		m.WriteLat.Record(uint64(lat))
		if duringCkpt {
			m.WriteLatCkpt.Record(uint64(lat))
		}
	} else {
		m.ReadQueries++
		m.ReadLat.Record(uint64(lat))
		if duringCkpt {
			m.ReadLatCkpt.Record(uint64(lat))
		}
	}
}

// NoteCheckpoint records one finished checkpoint's duration.
func (m *Metrics) NoteCheckpoint(d sim.VTime) { m.CkptDur.Record(uint64(d)) }

// Checkpoints returns the number of completed checkpoints.
func (m *Metrics) Checkpoints() int { return int(m.CkptDur.Count()) }

// MeanCheckpointTime returns the average checkpoint duration.
func (m *Metrics) MeanCheckpointTime() sim.VTime {
	if m.CkptDur.Count() == 0 {
		return 0
	}
	return sim.VTime(m.CkptDur.Sum() / m.CkptDur.Count())
}

// MaxCheckpointTime returns the longest checkpoint duration.
func (m *Metrics) MaxCheckpointTime() sim.VTime { return sim.VTime(m.CkptDur.Max()) }

// ThroughputQPS returns queries per simulated second.
func (m *Metrics) ThroughputQPS() float64 {
	if m.Elapsed == 0 {
		return 0
	}
	return float64(m.Queries) / m.Elapsed.Seconds()
}

// MeanLatency returns the mean query latency.
func (m *Metrics) MeanLatency() sim.VTime { return sim.VTime(m.AllLat.Mean()) }

// Device/FTL/flash deltas over the measured window.

// HostWriteBytes returns host-link write traffic during the run.
func (m *Metrics) HostWriteBytes() uint64 { return m.EndDev.HostWriteBytes - m.startDev.HostWriteBytes }

// HostReadBytes returns host-link read traffic during the run.
func (m *Metrics) HostReadBytes() uint64 { return m.EndDev.HostReadBytes - m.startDev.HostReadBytes }

// FlashPrograms returns flash program operations during the run.
func (m *Metrics) FlashPrograms() uint64 { return m.EndNand.Programs - m.startNand.Programs }

// FlashReads returns flash read operations during the run.
func (m *Metrics) FlashReads() uint64 { return m.EndNand.Reads - m.startNand.Reads }

// FlashErases returns block erases during the run.
func (m *Metrics) FlashErases() uint64 { return m.EndNand.Erases - m.startNand.Erases }

// FlashEnergyMJ returns the window's flash energy in millijoules: its
// reads, programs and erases at the array's per-operation energies.
func (m *Metrics) FlashEnergyMJ() float64 {
	return float64(m.timing.EnergyNJ(m.FlashReads(), m.FlashPrograms(), m.FlashErases())) / 1e6
}

// FlashProgramBytes returns bytes programmed during the run.
func (m *Metrics) FlashProgramBytes() uint64 {
	return m.EndNand.BytesProgrammed - m.startNand.BytesProgrammed
}

// FlashReadBytes returns bytes read from flash during the run.
func (m *Metrics) FlashReadBytes() uint64 { return m.EndNand.BytesRead - m.startNand.BytesRead }

// GCCount returns migrating GC invocations during the run.
func (m *Metrics) GCCount() uint64 { return m.EndFtl.GCInvocations - m.startFtl.GCInvocations }

// Reclaims returns all block reclamations during the run (migrating GCs
// plus trivially erased fully-invalid blocks). In steady state this tracks
// blocks consumed by programs and is robust to when the collector happened
// to run within the measured window.
func (m *Metrics) Reclaims() uint64 {
	return m.EndFtl.GCInvocations + m.EndFtl.DeadReclaims -
		m.startFtl.GCInvocations - m.startFtl.DeadReclaims
}

// RedundantWrites returns checkpoint- and GC-induced duplicate programs,
// the paper's Figure 8(a) metric.
func (m *Metrics) RedundantWrites() uint64 {
	return m.EndFtl.RedundantWrites() - m.startFtl.RedundantWrites()
}

// CheckpointPrograms returns programs caused directly by checkpointing.
func (m *Metrics) CheckpointPrograms() uint64 {
	return m.EndFtl.ProgramsByTag[ftl.TagCheckpoint] - m.startFtl.ProgramsByTag[ftl.TagCheckpoint]
}

// IOAmplification returns total host I/O bytes over write-query payload
// bytes (Figure 3(a) "I/O requests").
func (m *Metrics) IOAmplification() float64 {
	if m.WriteQueryPayload == 0 {
		return 0
	}
	return float64(m.HostWriteBytes()+m.HostReadBytes()) / float64(m.WriteQueryPayload)
}

// FlashAmplification returns flash traffic bytes over write-query payload
// bytes (Figure 3(a) "flash operations").
func (m *Metrics) FlashAmplification() float64 {
	if m.WriteQueryPayload == 0 {
		return 0
	}
	return float64(m.FlashProgramBytes()+m.FlashReadBytes()) / float64(m.WriteQueryPayload)
}

// Lifetime is the paper's Equation (1), PECmax × Top / BEC, over the
// measured window, for runs of equal work (one Top): PECmax ÷ BEC, BEC the
// blocks the window's programs consume, as every programmed page costs an
// erase sooner or later. Compare it as a ratio; 0 if nothing was programmed.
func (m *Metrics) Lifetime(maxPE, pagesPerBlock int) float64 {
	bec := float64(m.FlashPrograms()) / float64(pagesPerBlock)
	if bec == 0 {
		return 0
	}
	return float64(maxPE) / bec
}

// JournalSpaceOverhead returns stored/payload for the run's journal window.
func (m *Metrics) JournalSpaceOverhead() float64 {
	d := JournalStats{
		PayloadBytes: m.JournalEnd.PayloadBytes - m.JournalStart.PayloadBytes,
		StoredBytes:  m.JournalEnd.StoredBytes - m.JournalStart.StoredBytes,
	}
	return d.SpaceOverhead()
}

// Summary renders a human-readable digest.
func (m *Metrics) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed            %v\n", m.Elapsed)
	fmt.Fprintf(&b, "queries            %d (%.0f qps)\n", m.Queries, m.ThroughputQPS())
	fmt.Fprintf(&b, "mean latency       %v\n", m.MeanLatency())
	fmt.Fprintf(&b, "read p99.9         %v\n", sim.VTime(m.ReadLat.Percentile(99.9)))
	fmt.Fprintf(&b, "write p99.9        %v\n", sim.VTime(m.WriteLat.Percentile(99.9)))
	fmt.Fprintf(&b, "checkpoints        %d (mean %v)\n", m.Checkpoints(), m.MeanCheckpointTime())
	fmt.Fprintf(&b, "io amplification   %.2fx\n", m.IOAmplification())
	fmt.Fprintf(&b, "flash amplification %.2fx\n", m.FlashAmplification())
	fmt.Fprintf(&b, "redundant writes   %d\n", m.RedundantWrites())
	fmt.Fprintf(&b, "gc invocations     %d\n", m.GCCount())
	if m.RejectedWrites > 0 {
		fmt.Fprintf(&b, "rejected writes    %d (device read-only)\n", m.RejectedWrites)
	}
	// dftl-mode translation traffic (all counters zero in dram mode, so the
	// dram summary stays byte-identical).
	if flushes := m.EndFtl.TransFlushes - m.startFtl.TransFlushes; flushes > 0 {
		hits := m.EndFtl.CMTHits - m.startFtl.CMTHits
		misses := m.EndFtl.CMTMisses - m.startFtl.CMTMisses
		ratio := 0.0
		if hits+misses > 0 {
			ratio = float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(&b, "cmt hit ratio      %.4f (%d misses, %d evictions)\n",
			ratio, misses, m.EndFtl.CMTEvictions-m.startFtl.CMTEvictions)
		fmt.Fprintf(&b, "translation pages  %d flushed, %d read, %d gc-migrated\n",
			flushes, m.EndFtl.TransReads-m.startFtl.TransReads,
			m.EndFtl.TransMigrated-m.startFtl.TransMigrated)
		// Origin attribution: translation reads split into host demand
		// fetches, flush read-modify-writes and GC relocation reads; the
		// trailing counters are device-internal CMT updates (GC rebinding,
		// writeback-triggered dirtying) — the hit ratio above counts only
		// the host lookup path.
		fmt.Fprintf(&b, "trans read origin  %d host, %d flush-rmw, %d gc; internal cmt %d hits, %d misses\n",
			m.EndFtl.TransReadsHost-m.startFtl.TransReadsHost,
			m.EndFtl.TransReadsRMW-m.startFtl.TransReadsRMW,
			m.EndFtl.TransReadsGC-m.startFtl.TransReadsGC,
			m.EndFtl.CMTHitsGC-m.startFtl.CMTHitsGC,
			m.EndFtl.CMTMissesGC-m.startFtl.CMTMissesGC)
	}
	return b.String()
}
