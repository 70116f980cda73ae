package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanLog records the wall-clock spans the benchmark times around its own
// calls into the system. Spans stay in memory until the run ends.
type spanLog struct {
	spans []span
}

type span struct {
	name       string
	id, parent int // ids start at 1; parent 0 is none
	start, end time.Time
}

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{name: name, id: len(l.spans) + 1, parent: parent, start: time.Now()})
	return len(l.spans)
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.end = time.Now()
	return s.end.Sub(s.start)
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open. Each event carries its span id, its parent's
// id and the workload.
func (l *spanLog) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	if len(l.spans) > 0 {
		origin := l.spans[0].start
		for _, s := range l.spans {
			events = append(events, event{
				Name: s.name, Cat: "checkin-perf", Ph: "X",
				Ts:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
				Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
				Pid: 1, Tid: 1,
				Args: map[string]any{"id": s.id, "parent": s.parent, "workload": workload},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
