package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"genesys/internal/sim"
)

// Flight is the always-on flight recorder: a bounded per-trace-ID
// retention ring over the causal spans the core tracer already emits,
// plus deterministic anomaly detectors that write a diagnostic Bundle
// on trigger. It runs even when the full event log is disabled — the
// EventLog it is built into tees flow-tagged spans here — so an untraced
// production-style run still captures the window around a misbehavior.
//
// Everything is pure accounting in virtual time: detectors never
// schedule events, advance time, or consume randomness, so attaching a
// flight recorder leaves BENCH_<case>.json byte-identical, and for a
// fixed seed the emitted bundles are byte-identical across runs (gated
// by the double-run CI determinism check).
type Flight struct {
	chains    map[uint64]*chain
	order     []uint64 // insertion (trace-claim) order, oldest first (live from orderHead)
	orderHead int      // index of the oldest live entry in order
	free      []*chain // evicted chains recycled to keep the tee allocation-free
	last      *chain   // chain of the previous span; a call's spans arrive back to back

	// SLO burn-rate sliding window over recent request outcomes.
	burn      []burnSample
	burnUntil sim.Time // re-arm instant after an slo-burn trigger

	snaps []snapshotSource

	bundles    []*Bundle
	anomalies  int64
	suppressed int64
	evicted    int64
	cooldown   map[string]sim.Time // reason → earliest next-bundle instant
	lastReason string
	lastDetail string
	lastAt     sim.Time
}

// The recorder's memory bounds and detector thresholds. Every threshold
// is a deterministic function of virtual-time history.
const (
	// flightChainCap bounds retained trace chains (about the event
	// ring's span budget); the oldest are evicted.
	flightChainCap = 2048
	// flightBundleCap bounds bundles per run; further triggers are
	// counted as suppressed.
	flightBundleCap = 8
	// outlierMinCalls is the per-NR sample count before the
	// latency-outlier detector arms (a running p99 over a handful of
	// samples is noise).
	outlierMinCalls = 128
	// outlierFactor triggers latency-outlier when a call's total latency
	// exceeds outlierFactor × the running per-NR p99.
	outlierFactor float64 = 16
	// burnWindow is the sliding virtual-time window of the SLO burn-rate
	// detector: burnMinRequests outcomes must fall inside it and the bad
	// fraction must reach burnThreshold to trigger.
	burnWindow      = sim.Millisecond
	burnMinRequests = 64
	burnThreshold   = 0.25
	// neighborMargin widens the implicated chains' virtual-time window
	// when collecting neighbor chains for a bundle's filtered trace.
	neighborMargin = 20 * sim.Microsecond
	// bundleCooldown is the minimum virtual-time gap between bundles for
	// the same reason; triggers inside it are counted as suppressed.
	bundleCooldown = 250 * sim.Microsecond
)

// chain is the retained span set of one causal trace ID.
type chain struct {
	id         uint64
	events     []Event
	start, end sim.Time
	done       bool // saw FlowEnd (completion or abort terminator)
}

type burnSample struct {
	at  sim.Time
	bad bool
}

type snapshotSource struct {
	name string
	fn   func() []byte
}

// NewFlight returns an empty recorder.
func NewFlight() *Flight {
	return &Flight{
		chains:   make(map[uint64]*chain),
		cooldown: make(map[string]sim.Time),
	}
}

// addSpan receives one flow-tagged span from the EventLog tee and files
// it under its trace chain, evicting the oldest chain beyond
// flightChainCap.
// This is the hot tee off the engine loop: evicted chains (struct and
// events backing array) go to a freelist and are reused for new traces,
// and eviction advances a head index instead of re-slicing order, so
// steady-state recording allocates nothing. Eviction happens only when a
// new chain is filed, which also replaces the cached last chain, so the
// cache never names an evicted chain.
func (f *Flight) addSpan(e Event) {
	if e.Flow == 0 {
		return
	}
	c := f.last
	if c == nil || c.id != e.Flow {
		c = f.chains[e.Flow]
	}
	if c == nil {
		if n := len(f.free); n > 0 {
			c = f.free[n-1]
			f.free[n-1] = nil
			f.free = f.free[:n-1]
			*c = chain{id: e.Flow, events: c.events[:0], start: e.Start, end: e.End}
		} else {
			c = &chain{id: e.Flow, start: e.Start, end: e.End}
		}
		f.chains[e.Flow] = c
		f.order = append(f.order, e.Flow)
		for len(f.order)-f.orderHead > flightChainCap {
			victim := f.order[f.orderHead]
			f.orderHead++
			if vc := f.chains[victim]; vc != nil {
				f.free = append(f.free, vc)
			}
			delete(f.chains, victim)
			f.evicted++
		}
		// Compact the dead prefix once it dominates, so order's footprint
		// stays ~2×flightChainCap instead of growing with every eviction.
		if f.orderHead > flightChainCap {
			f.order = append(f.order[:0], f.order[f.orderHead:]...)
			f.orderHead = 0
		}
	}
	f.last = c
	c.events = append(c.events, e)
	if e.Start < c.start {
		c.start = e.Start
	}
	if e.End > c.end {
		c.end = e.End
	}
	if e.FlowPhase == FlowEnd {
		c.done = true
	}
}

// AddSnapshot registers a named state renderer (critpath, metrics,
// util, ...) whose output is frozen into every bundle at its trigger
// instant.
func (f *Flight) AddSnapshot(name string, fn func() []byte) {
	f.snaps = append(f.snaps, snapshotSource{name: name, fn: fn})
}

// NoteCall fires the latency-outlier detector when one completed
// syscall's total latency (µs) exceeds outlierFactor × p99, where n and
// p99 describe the call's per-NR latency distribution before this
// sample joined it. The core tracer keeps that distribution; the
// detector arms once it holds outlierMinCalls samples.
func (f *Flight) NoteCall(name string, trace uint64, totalUS float64, at sim.Time, n int, p99 float64) {
	if n < outlierMinCalls || p99 <= 0 || totalUS <= outlierFactor*p99 {
		return
	}
	f.trigger("latency-outlier",
		fmt.Sprintf("%s trace=%d total=%.2fus > %gx running p99=%.2fus (n=%d)",
			name, trace, totalUS, outlierFactor, p99, n),
		at, []uint64{trace})
}

// NoteAbort fires the watchdog-exhaustion detector: the retransmit
// watchdog gave up on a doorbell and surfaced EINTR to the GPU.
func (f *Flight) NoteAbort(name string, trace uint64, at sim.Time) {
	f.trigger("watchdog-exhausted",
		fmt.Sprintf("%s trace=%d aborted EINTR after retransmit exhaustion", name, trace),
		at, []uint64{trace})
}

// NoteSurfaced fires the fault-surfaced detector: a layer's recovery
// gave up and an injected fault became visible to the application.
func (f *Flight) NoteSurfaced(at sim.Time) {
	f.trigger("fault-surfaced",
		"injected fault exhausted recovery and surfaced to the application",
		at, nil)
}

// NoteRequest feeds one request outcome (e.g. a fleet client's reply,
// timeout, drop, or refusal) into the SLO burn-rate window: when at
// least burnMinRequests outcomes land inside burnWindow and the bad
// fraction reaches burnThreshold, the slo-burn detector fires and the
// window re-arms after one full burnWindow.
func (f *Flight) NoteRequest(at sim.Time, ok bool) {
	f.burn = append(f.burn, burnSample{at: at, bad: !ok})
	lo := 0
	for lo < len(f.burn) && f.burn[lo].at < at-burnWindow {
		lo++
	}
	if lo > 0 {
		f.burn = append(f.burn[:0], f.burn[lo:]...)
	}
	if at < f.burnUntil || len(f.burn) < burnMinRequests {
		return
	}
	bad := 0
	for _, s := range f.burn {
		if s.bad {
			bad++
		}
	}
	frac := float64(bad) / float64(len(f.burn))
	if frac < burnThreshold {
		return
	}
	f.burnUntil = at + burnWindow
	f.trigger("slo-burn",
		fmt.Sprintf("%d/%d requests bad (%.1f%%) within %v window",
			bad, len(f.burn), 100*frac, burnWindow),
		at, nil)
}

// recentDone returns the ids of the most recently completed chains
// (newest last), for detectors with no direct trace identity.
func (f *Flight) recentDone(n int) []uint64 {
	var out []uint64
	for i := len(f.order) - 1; i >= f.orderHead && len(out) < n; i-- {
		if c := f.chains[f.order[i]]; c != nil && c.done {
			out = append(out, c.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// trigger is the common anomaly path: count it, apply per-reason
// cooldown and the bundle cap, then freeze a Bundle.
func (f *Flight) trigger(reason, detail string, at sim.Time, traces []uint64) {
	f.anomalies++
	f.lastReason, f.lastDetail, f.lastAt = reason, detail, at
	if until, ok := f.cooldown[reason]; ok && at < until {
		f.suppressed++
		return
	}
	if len(f.bundles) >= flightBundleCap {
		f.suppressed++
		return
	}
	f.cooldown[reason] = at + bundleCooldown
	f.bundles = append(f.bundles, f.buildBundle(reason, detail, at, traces))
}

// Bundle is one frozen diagnostic artifact: the anomaly's identity, the
// implicated trace IDs plus their virtual-time neighbors, state
// snapshots at the trigger instant, and a Perfetto-loadable trace
// filtered to exactly those chains.
type Bundle struct {
	Seq       int               `json:"seq"`
	Reason    string            `json:"reason"`
	Detail    string            `json:"detail"`
	AtNs      int64             `json:"at_ns"`
	TraceIDs  []uint64          `json:"trace_ids"`
	Neighbors []uint64          `json:"neighbor_trace_ids"`
	Snapshots map[string]string `json:"snapshots"`
	Trace     chromeTrace       `json:"trace"`
}

// Name returns the bundle's canonical file name.
func (b *Bundle) Name() string {
	return fmt.Sprintf("ANOMALY_%03d_%s.json", b.Seq, b.Reason)
}

// JSON renders the bundle as indented JSON with a trailing newline —
// the byte-identical-across-runs artifact format.
func (b *Bundle) JSON() []byte {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return []byte(fmt.Sprintf("{\"error\":%q}\n", err.Error()))
	}
	return append(out, '\n')
}

func (f *Flight) buildBundle(reason, detail string, at sim.Time, traces []uint64) *Bundle {
	b := &Bundle{
		Seq:       len(f.bundles),
		Reason:    reason,
		Detail:    detail,
		AtNs:      int64(at),
		Snapshots: map[string]string{},
	}
	// Detectors without direct trace identity implicate the most
	// recently completed chains — the requests that were in flight as
	// the anomaly developed.
	if len(traces) == 0 {
		traces = f.recentDone(4)
	}
	implicated := make(map[uint64]bool, len(traces))
	var lo, hi sim.Time
	first := true
	for _, id := range traces {
		c := f.chains[id]
		if c == nil {
			continue
		}
		implicated[id] = true
		if first || c.start < lo {
			lo = c.start
		}
		if first || c.end > hi {
			hi = c.end
		}
		first = false
	}
	for _, id := range traces {
		if implicated[id] {
			b.TraceIDs = append(b.TraceIDs, id)
		}
	}
	sort.Slice(b.TraceIDs, func(i, j int) bool { return b.TraceIDs[i] < b.TraceIDs[j] })
	// Neighbors: retained chains overlapping the implicated window,
	// widened by the margin — the concurrent activity that shaped the
	// anomaly.
	if !first {
		lo -= neighborMargin
		hi += neighborMargin
		for _, id := range f.order[f.orderHead:] {
			c := f.chains[id]
			if c == nil || implicated[id] {
				continue
			}
			if c.end >= lo && c.start <= hi {
				b.Neighbors = append(b.Neighbors, id)
			}
		}
		sort.Slice(b.Neighbors, func(i, j int) bool { return b.Neighbors[i] < b.Neighbors[j] })
	}
	for _, s := range f.snaps {
		b.Snapshots[s.name] = string(s.fn())
	}
	var evs []Event
	include := func(ids []uint64) {
		for _, id := range ids {
			if c := f.chains[id]; c != nil {
				evs = append(evs, c.events...)
			}
		}
	}
	include(b.TraceIDs)
	include(b.Neighbors)
	b.Trace.DisplayTimeUnit = "ms"
	b.Trace.TraceEvents = appendChromeEvents(nil, evs)
	if b.Trace.TraceEvents == nil {
		b.Trace.TraceEvents = []chromeEvent{}
	}
	return b
}

// Bundles returns the frozen bundles in trigger order.
func (f *Flight) Bundles() []*Bundle { return f.bundles }

// Anomalies returns the total detector triggers (including suppressed).
func (f *Flight) Anomalies() int64 { return f.anomalies }

// BundleCount returns how many bundles were frozen.
func (f *Flight) BundleCount() int { return len(f.bundles) }

// Suppressed returns triggers dropped by cooldown or the bundle cap.
func (f *Flight) Suppressed() int64 { return f.suppressed }

// Chains returns the number of retained trace chains.
func (f *Flight) Chains() int { return len(f.chains) }

// Evicted returns how many chains were evicted by the retention cap.
func (f *Flight) Evicted() int64 { return f.evicted }

// Last returns the most recent trigger's reason, detail and instant
// (empty reason when no detector has fired).
func (f *Flight) Last() (reason, detail string, at sim.Time) {
	return f.lastReason, f.lastDetail, f.lastAt
}

// BurnState returns the burn window's current occupancy and bad count.
func (f *Flight) BurnState() (n, bad int) {
	for _, s := range f.burn {
		if s.bad {
			bad++
		}
	}
	return len(f.burn), bad
}

// Render returns the /sys/genesys/flight view: recorder health, the
// last trigger, and one line per frozen bundle.
func (f *Flight) Render() string {
	var sb strings.Builder
	sb.WriteString("flight recorder\n")
	n, bad := f.BurnState()
	fmt.Fprintf(&sb, "  chains retained %d (cap %d, evicted %d)\n",
		len(f.chains), flightChainCap, f.evicted)
	fmt.Fprintf(&sb, "  anomalies %d  bundles %d/%d  suppressed %d\n",
		f.anomalies, len(f.bundles), flightBundleCap, f.suppressed)
	fmt.Fprintf(&sb, "  burn window %d requests, %d bad\n", n, bad)
	if f.lastReason != "" {
		fmt.Fprintf(&sb, "  last trigger %s at %v: %s\n", f.lastReason, f.lastAt, f.lastDetail)
	}
	for _, b := range f.bundles {
		fmt.Fprintf(&sb, "  %s at=%v traces=%d neighbors=%d\n",
			b.Name(), sim.Time(b.AtNs), len(b.TraceIDs), len(b.Neighbors))
	}
	return sb.String()
}
