package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"time"
)

// spanLog keeps the benchmark's own spans in memory during the traced run
// and writes them out when the run ends. The spans sit around the
// benchmark's calls into the simulator's layers. A nil *spanLog records
// nothing, which is how untraced repetitions run.
type spanLog struct {
	rep   int // id shared by every span of the current repetition
	spans []span
}

type span struct {
	name, parent string
	rep          int
	start, end   time.Time
}

func (l *spanLog) add(name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name, parent, l.rep, start, end})
}

// stages records one machine's set-up, run and finish within a
// repetition.
func (l *spanLog) stages(t0, t1, t2, t3 time.Time) {
	l.add("setup", "rep", t0, t1)
	l.add("run", "rep", t1, t2)
	l.add("finish", "rep", t2, t3)
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// mergeSpans writes l's spans for workload w (process pid in the viewer)
// into the Chrome trace-event file at path, replacing any spans an earlier
// traced run of the same workload left there and keeping the others'.
func mergeSpans(path, w string, pid int, l *spanLog) error {
	var tf traceFile
	if err := readJSON(path, &tf); err != nil {
		return err
	}
	kept := tf.TraceEvents[:0]
	for _, ev := range tf.TraceEvents {
		if ev.PID != pid {
			kept = append(kept, ev)
		}
	}
	tf.TraceEvents = kept
	tf.TraceEvents = append(tf.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": w}})
	if len(l.spans) > 0 {
		origin := l.spans[0].start
		for _, s := range l.spans {
			if s.start.Before(origin) {
				origin = s.start
			}
		}
		for _, s := range l.spans {
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: s.name, Cat: w, Ph: "X",
				TS:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
				Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
				PID: pid, TID: 1,
				Args: map[string]any{"id": s.rep, "parent": s.parent},
			})
		}
	}
	return writeJSON(path, tf)
}

// readJSON decodes path into v; a missing file leaves v untouched.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
