package core

import (
	"slices"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
)

// RecoveryReport describes what a restarted instance reconstructs after a
// crash, next to the version truth it must reproduce.
type RecoveryReport struct {
	Recovered        []int64 // per-key recovered version
	ReplayedLogs     int
	FromCheckpoint   int64 // keys restored purely from the last checkpoint
	RecoveryTime     sim.VTime
	JournalBytesRead int64

	Durable  []int64 // per-key committed version: what recovery must reproduce
	InMemory []int64 // per-key in-memory (volatile) version

	// Reads are the device reads the recovery scan issues, in order;
	// TimeRecovery turns them into RecoveryTime.
	Reads []ScanRead
}

// ScanRead is one device read of a recovery scan.
type ScanRead struct{ Off, Len int64 }

// NewRecoveryReport starts a report from the versions the last checkpoint
// holds (taken over, not copied) and copies of the durable and in-memory
// version vectors.
func (b *Base) NewRecoveryReport(checkpointed []int64) *RecoveryReport {
	rep := &RecoveryReport{
		Recovered: checkpointed,
		Durable:   slices.Clone(b.log.Durable()),
		InMemory:  slices.Clone(b.version),
	}
	for _, v := range checkpointed {
		if v > 0 {
			rep.FromCheckpoint++
		}
	}
	return rep
}

// Replay folds one committed log record of stored bytes into the report.
func (r *RecoveryReport) Replay(key, version int64, stored int) {
	r.ReplayedLogs++
	r.JournalBytesRead += int64(stored)
	if version > r.Recovered[key] {
		r.Recovered[key] = version
	}
}

// Diverged counts the keys whose recovered version differs from their
// durable version: zero for a correct recovery.
func (r *RecoveryReport) Diverged() int {
	n := 0
	for k, v := range r.Durable {
		if r.Recovered[k] != v {
			n++
		}
	}
	return n
}

// ScanLog appends the sequential scan of the replayed log bytes from the
// half at start, in 256 KB reads that stop at the half's end.
func (r *RecoveryReport) ScanLog(start, halfBytes int64) {
	const chunk = 256 << 10
	for off := int64(0); off < r.JournalBytesRead; off += chunk {
		n := min(int64(chunk), r.JournalBytesRead-off)
		if off+n > halfBytes {
			break
		}
		r.Reads = append(r.Reads, ScanRead{Off: start + off, Len: n})
	}
}

// TimeRecovery issues rep's scan reads on dev one after another, up to
// the last one's completion, and sets rep.RecoveryTime to the time taken.
// The scan stops the kernel itself rather than by Engine.StopWhenIdle: a
// store whose run failed keeps the failing epoch parked for good.
func TimeRecovery(eng *sim.Engine, dev *ssd.Device, rep *RecoveryReport) {
	start := eng.Now()
	eng.Go("recovery", func(p *sim.Proc) {
		for _, rd := range rep.Reads {
			WaitDevice(p, dev, dev.Read(rd.Off, rd.Len))
		}
		eng.Stop()
	})
	eng.Run()
	rep.RecoveryTime = eng.Now() - start
}
