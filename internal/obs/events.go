package obs

import (
	"encoding/json"
	"io"
	"sort"

	"genesys/internal/sim"
)

// Synthetic process IDs grouping event-log threads in trace viewers.
// The first three existed from the start: GPU wavefront activity, OS
// kernel workers, and GENESYS syscall slot lifecycles. The rest split
// the syscall life cycle across the hardware/software layers it crosses
// — interrupt delivery, the kernel workqueue, the storage and network
// back-ends — plus a process for utilization counter tracks, so one
// traced call renders as a flow-linked arrow chain across "processes".
const (
	PIDGPU       = 1
	PIDKernel    = 2
	PIDSyscalls  = 3
	PIDIRQ       = 4
	PIDWorkqueue = 5
	PIDBlockdev  = 6
	PIDNetstack  = 7
	PIDUtil      = 8
)

// EventKind distinguishes spans (duration events) from instants and
// counter samples.
type EventKind uint8

const (
	KindSpan EventKind = iota
	KindInstant
	KindCounter
)

// FlowPhase marks an event's position in a causal flow chain (Chrome
// trace flow events "s"/"t"/"f"). Events sharing a non-zero Flow ID and
// carrying a FlowPhase are connected by arrows in trace viewers.
type FlowPhase uint8

const (
	FlowNone FlowPhase = iota
	FlowStart
	FlowStep
	FlowEnd
)

// Event is one structured event in virtual time. For spans, [Start, End]
// is the duration; instants use only Start; counters carry Value at
// Start. A non-zero Flow links the event into a causal chain labelled
// FlowName.
type Event struct {
	Kind       EventKind
	Cat        string // category, e.g. "gpu", "kernel", "syscall"
	Name       string
	PID        int // synthetic process ID (PIDGPU, ...)
	TID        int // thread within the group: HW slot, worker ID, slot ID
	Start, End sim.Time

	// Flow is the causal trace ID this event belongs to (0 = none);
	// FlowPhase is its position in the chain and FlowName the chain's
	// label (the syscall name).
	Flow      uint64
	FlowPhase FlowPhase
	FlowName  string

	// Value is the sample of a KindCounter event.
	Value float64
}

// Dur returns the span duration (0 for instants).
func (e Event) Dur() sim.Time {
	if e.Kind != KindSpan {
		return 0
	}
	return e.End - e.Start
}

// DefaultEventCap is the default ring-buffer capacity.
const DefaultEventCap = 1 << 16

// EventLog is a bounded ring buffer of structured events. It starts
// disabled so instrumented hot paths cost nothing until a consumer (the
// -trace flag, a test) opts in, and it allocates the ring at the first
// recorded event, so a log that never records costs no ring memory. When
// full, the oldest events are overwritten and counted as dropped.
type EventLog struct {
	enabled  bool
	capacity int     // ring size; buf is nil or has exactly this capacity
	buf      []Event // allocated at the first push
	head     int     // next write position
	total    int64   // events ever recorded
	rejected int64   // spans refused for negative duration

	procNames   map[int]string
	threadNames map[[2]int]string // (pid, tid) → name

	// flight receives every flow-tagged span — even while the ring
	// itself is disabled — so the always-on flight recorder sees causal
	// chains without the cost of full event retention.
	flight *Flight
}

// NewEventLog returns a disabled log holding up to capacity events
// (DefaultEventCap if capacity <= 0) that tees flow-tagged spans to the
// flight recorder f.
func NewEventLog(capacity int, f *Flight) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &EventLog{
		capacity:    capacity,
		procNames:   make(map[int]string),
		threadNames: make(map[[2]int]string),
		flight:      f,
	}
}

// SetEnabled switches recording on or off.
func (l *EventLog) SetEnabled(on bool) { l.enabled = on }

// Enabled reports whether the log is recording.
func (l *EventLog) Enabled() bool { return l.enabled }

// Capacity returns the ring's event capacity.
func (l *EventLog) Capacity() int { return l.capacity }

// NameProcess labels a synthetic process ID in exported traces.
func (l *EventLog) NameProcess(pid int, name string) { l.procNames[pid] = name }

// NameThread labels one thread of a synthetic process in exported
// traces (e.g. "kworker/3" or "cu2/wave17").
func (l *EventLog) NameThread(pid, tid int, name string) {
	l.threadNames[[2]int{pid, tid}] = name
}

func (l *EventLog) push(e Event) {
	l.total++
	if l.buf == nil {
		l.buf = make([]Event, 0, l.capacity)
	}
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.head] = e
	l.head = (l.head + 1) % len(l.buf)
}

// Span records a [start, end] duration event. Spans whose end precedes
// their start are rejected (and counted) rather than corrupting the
// exported trace.
func (l *EventLog) Span(cat, name string, pid, tid int, start, end sim.Time) {
	l.FlowSpan(cat, name, pid, tid, start, end, 0, FlowNone, "")
}

// FlowSpan is Span with the event linked into causal flow chain `flow`
// (0 disables linking) at position fp; flowName labels the chain.
func (l *EventLog) FlowSpan(cat, name string, pid, tid int, start, end sim.Time,
	flow uint64, fp FlowPhase, flowName string) {
	if end < start {
		if l.enabled {
			l.rejected++
		}
		return
	}
	e := Event{Kind: KindSpan, Cat: cat, Name: name, PID: pid, TID: tid,
		Start: start, End: end, Flow: flow, FlowPhase: fp, FlowName: flowName}
	if flow != 0 {
		l.flight.addSpan(e)
	}
	if l.enabled {
		l.push(e)
	}
}

// Instant records a point event at time t.
func (l *EventLog) Instant(cat, name string, pid, tid int, t sim.Time) {
	if !l.Enabled() {
		return
	}
	l.push(Event{Kind: KindInstant, Cat: cat, Name: name, PID: pid, TID: tid, Start: t})
}

// Counter records a counter-track sample (value v at time t); exported
// as a Chrome "C" event, which trace viewers render as a filled
// timeline.
func (l *EventLog) Counter(cat, name string, pid, tid int, t sim.Time, v float64) {
	if !l.Enabled() {
		return
	}
	l.push(Event{Kind: KindCounter, Cat: cat, Name: name, PID: pid, TID: tid,
		Start: t, Value: v})
}

// Len returns the number of retained events.
func (l *EventLog) Len() int { return len(l.buf) }

// Dropped returns how many events were overwritten by ring wrap-around.
func (l *EventLog) Dropped() int64 { return l.total - int64(len(l.buf)) }

// Rejected returns how many spans were refused for negative duration.
func (l *EventLog) Rejected() int64 { return l.rejected }

// Events returns the retained events in push order. Spans are pushed at
// their end time but carry their start time, so push order is NOT
// start-time order; WriteChromeTrace sorts for export.
func (l *EventLog) Events() []Event {
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.head:]...)
	out = append(out, l.buf[:l.head]...)
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (ph "X" = complete span, "i" = instant, "C" = counter, "M" =
// metadata, "s"/"t"/"f" = flow start/step/end).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope form of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serializes the retained events as Chrome trace-event
// JSON, loadable in chrome://tracing and Perfetto. Timestamps are
// virtual-time microseconds. Events are emitted oldest-first (sorted by
// start time — the ring holds spans in end-time push order), after the
// process/thread naming metadata. Flow-linked spans additionally emit
// the "s"/"t"/"f" flow events that draw the causal arrow chain.
func (l *EventLog) WriteChromeTrace(w io.Writer) error {
	var out chromeTrace
	out.DisplayTimeUnit = "ms"
	out.TraceEvents = append(out.TraceEvents, l.metaEvents()...)
	out.TraceEvents = appendChromeEvents(out.TraceEvents, l.Events())
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// metaEvents returns the process/thread naming metadata as Chrome "M"
// events in deterministic (pid, tid) order.
func (l *EventLog) metaEvents() []chromeEvent {
	var out []chromeEvent
	pids := make([]int, 0, len(l.procNames))
	for pid := range l.procNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": l.procNames[pid]},
		})
	}
	tkeys := make([][2]int, 0, len(l.threadNames))
	for k := range l.threadNames {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool {
		if tkeys[i][0] != tkeys[j][0] {
			return tkeys[i][0] < tkeys[j][0]
		}
		return tkeys[i][1] < tkeys[j][1]
	})
	for _, k := range tkeys {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: k[0], TID: k[1],
			Args: map[string]any{"name": l.threadNames[k]},
		})
	}
	return out
}

// appendChromeEvents converts events to Chrome trace entries (sorting a
// copy by start time first) and appends them to dst. Flow-linked spans
// additionally emit their "s"/"t"/"f" flow event.
func appendChromeEvents(dst []chromeEvent, events []Event) []chromeEvent {
	evs := make([]Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].End < evs[j].End
	})
	for _, e := range evs {
		ce := chromeEvent{
			Name: e.Name, Cat: e.Cat, Ts: e.Start.Micro(),
			PID: e.PID, TID: e.TID,
		}
		switch e.Kind {
		case KindSpan:
			ce.Ph = "X"
			ce.Dur = e.Dur().Micro()
		case KindCounter:
			ce.Ph = "C"
			ce.Args = map[string]any{"value": e.Value}
		default:
			ce.Ph = "i"
			ce.S = "t"
		}
		dst = append(dst, ce)
		if e.Flow != 0 && e.FlowPhase != FlowNone {
			fe := chromeEvent{
				Name: e.FlowName, Cat: "flow", Ts: e.Start.Micro(),
				PID: e.PID, TID: e.TID, ID: e.Flow,
			}
			switch e.FlowPhase {
			case FlowStart:
				fe.Ph = "s"
			case FlowStep:
				fe.Ph = "t"
			default:
				fe.Ph = "f"
				fe.BP = "e"
				fe.Ts = e.End.Micro()
			}
			dst = append(dst, fe)
		}
	}
	return dst
}
