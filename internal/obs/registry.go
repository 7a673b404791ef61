// Package obs is the observability layer of the simulated machine: a
// metrics registry every subsystem publishes named counters and gauges
// into (rendered at /sys/genesys/metrics), a structured event log of
// virtual-time spans and instants exportable as Chrome trace-event JSON
// (openable in chrome://tracing or Perfetto), and log-bucketed latency
// histograms with percentile queries.
//
// The paper's evidence is latency breakdowns and counter trajectories
// (Figure 2's five-step cost split, Table IV, the Figure 9/14 knees);
// this package is what makes those measurements uniform, exportable and
// checkable instead of ad-hoc per-package fields.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Gauge reports an instantaneous value (queue depth, outstanding calls,
// free pages) each time the registry is snapshot.
type Gauge func() int64

// Registry is a machine-wide catalogue of named statistics. Names are
// dot-separated "<subsystem>.<stat>" (e.g. "genesys.slot_conflicts");
// registering a duplicate name panics, since it would silently shadow a
// statistic.
type Registry struct {
	gauges map[string]Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: make(map[string]Gauge)}
}

// RegisterCounter publishes a subsystem's int64 counter field under
// name. The registry keeps the pointer, so later increments are visible
// in snapshots.
func (r *Registry) RegisterCounter(name string, c *int64) {
	if c == nil {
		panic("obs: nil counter " + name)
	}
	r.RegisterGauge(name, func() int64 { return *c })
}

// RegisterGauge publishes an instantaneous statistic under name.
func (r *Registry) RegisterGauge(name string, g Gauge) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if _, ok := r.gauges[name]; ok {
		panic("obs: duplicate metric " + name)
	}
	if g == nil {
		panic("obs: nil gauge " + name)
	}
	r.gauges[name] = g
}

// Names returns all registered metric names, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the current value of every registered metric.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(r.gauges))
	for n, g := range r.gauges {
		out[n] = g()
	}
	return out
}

// Render produces the sorted "name value" text served at
// /sys/genesys/metrics.
func (r *Registry) Render() string {
	snap := r.Snapshot()
	var b strings.Builder
	for _, n := range r.Names() {
		fmt.Fprintf(&b, "%s %d\n", n, snap[n])
	}
	return b.String()
}

// Observer bundles the per-machine observability state: the metrics
// registry, the event log and the utilization-track registry.
// platform.New creates one per Machine.
type Observer struct {
	Metrics *Registry
	Events  *EventLog
	Util    *Util
	Flight  *Flight // always-on flight recorder (flight.go)

	slo *SLOReport // current run's service-level report (slo.go)
}

// New returns an Observer with an empty registry, a disabled event log
// holding up to eventCap events (DefaultEventCap if eventCap <= 0), an
// empty utilization registry that mirrors counter samples into the
// event log, and an always-on flight recorder teed off the event log's
// flow-tagged spans.
func New(eventCap int) *Observer {
	fl := NewFlight()
	ev := NewEventLog(eventCap, fl)
	return &Observer{
		Metrics: NewRegistry(),
		Events:  ev,
		Util:    NewUtil(ev),
		Flight:  fl,
	}
}
