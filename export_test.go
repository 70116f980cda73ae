package checkin

import "github.com/checkin-kv/checkin/internal/core"

// ForceConventionalLogs puts every strategy, Check-In included, on the
// conventional log format until the returned func runs (see
// core.ForceConventionalLogs).
func ForceConventionalLogs() (restore func()) { return core.ForceConventionalLogs() }

// CloneDB clones db, stopped at a quiescent instant (deallocator paused,
// kernel drained), under db's configuration through the clone entry
// Snapshot.Fork takes, at the kernel's current state. It lets tests clone
// a stack that has run, whose journal, memtable, slot tables and caches
// hold state a post-Load template never does.
func CloneDB(db *DB) (*DB, error) { return db.clone(db.cfg, db.eng.State()) }
