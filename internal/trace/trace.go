// Package trace provides a lightweight structured event tracer for the
// simulation: components append typed events (checkpoint begin/end, GC
// victim collected, journal commit, device command) into a bounded ring,
// and tools dump or filter them for debugging and for explaining a run's
// behaviour ("what exactly happened around the latency spike at t=1.2s?").
//
// Tracing is optional and zero-cost when disabled: a nil *Tracer is a valid
// receiver for Emit.
package trace

import (
	"fmt"
	"io"
	"strings"

	"github.com/checkin-kv/checkin/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// Event kinds emitted by the stack.
const (
	KindCheckpointBegin Kind = iota
	KindCheckpointEnd
	KindJournalCommit
	KindJournalSwitch
	KindGCVictim
	KindWearLevel
	// NAND-fault events (reliability model): a read-retry ladder, a page
	// program reporting FAIL, an erase reporting FAIL, a block retirement,
	// and the device dropping to read-only after the spare pool drained.
	KindReadRetry
	KindProgramFail
	KindEraseFail
	KindBlockRetire
	KindReadOnly
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCheckpointBegin:
		return "ckpt-begin"
	case KindCheckpointEnd:
		return "ckpt-end"
	case KindJournalCommit:
		return "journal-commit"
	case KindJournalSwitch:
		return "journal-switch"
	case KindGCVictim:
		return "gc-victim"
	case KindWearLevel:
		return "wear-level"
	case KindReadRetry:
		return "read-retry"
	case KindProgramFail:
		return "program-fail"
	case KindEraseFail:
		return "erase-fail"
	case KindBlockRetire:
		return "block-retire"
	case KindReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one trace record.
type Event struct {
	At   sim.VTime
	Kind Kind
	// Arg carries the kind-specific quantity (entries checkpointed, block
	// id collected, bytes committed, ...).
	Arg int64
	// Detail is an optional human-readable fragment.
	Detail string
}

// String renders the event.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%12v %-14s %d", e.At, e.Kind, e.Arg)
	}
	return fmt.Sprintf("%12v %-14s %d %s", e.At, e.Kind, e.Arg, e.Detail)
}

// Tracer is a bounded ring of events. The zero value is unusable; create
// with New. A nil Tracer discards events.
type Tracer struct {
	ring    []Event
	next    int
	wrapped bool
	dropped uint64
	counts  [numKinds]uint64
}

// New creates a tracer holding up to capacity events (older events are
// overwritten once full).
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// Emit appends an event. Safe on a nil receiver (no-op).
func (t *Tracer) Emit(at sim.VTime, kind Kind, arg int64, detail string) {
	if t == nil {
		return
	}
	if int(kind) < len(t.counts) {
		t.counts[kind]++
	}
	ev := Event{At: at, Kind: kind, Arg: arg, Detail: detail}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
		return
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % cap(t.ring)
	t.wrapped = true
	t.dropped++
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Dropped returns how many events were overwritten by newer ones.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Count returns how many events of the kind were emitted (including
// overwritten ones).
func (t *Tracer) Count(kind Kind) uint64 {
	if t == nil || int(kind) >= len(t.counts) {
		return 0
	}
	return t.counts[kind]
}

// Events returns retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		out := make([]Event, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Filter returns retained events of the given kinds in order.
func (t *Tracer) Filter(kinds ...Kind) []Event {
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, e := range t.Events() {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// Between returns retained events with from <= At < to.
func (t *Tracer) Between(from, to sim.VTime) []Event {
	var out []Event
	for _, e := range t.Events() {
		if e.At >= from && e.At < to {
			out = append(out, e)
		}
	}
	return out
}

// Dump writes every retained event, one per line.
func (t *Tracer) Dump(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d older events overwritten)\n", d); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders per-kind counts.
func (t *Tracer) Summary() string {
	if t == nil {
		return "tracing disabled"
	}
	var b strings.Builder
	for k := Kind(0); k < numKinds; k++ {
		if t.counts[k] > 0 {
			fmt.Fprintf(&b, "%-14s %d\n", k, t.counts[k])
		}
	}
	return b.String()
}
