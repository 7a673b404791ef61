package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"genesys/internal/sim"
)

// --- Registry --------------------------------------------------------------

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	c1, c2 := int64(7), int64(3)
	r.RegisterCounter("zeta.ops", &c1)
	r.RegisterCounter("alpha.ops", &c2)
	depth := int64(5)
	r.RegisterGauge("mid.depth", func() int64 { return depth })

	names := r.Names()
	want := []string{"alpha.ops", "mid.depth", "zeta.ops"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	snap := r.Snapshot()
	if snap["zeta.ops"] != 7 || snap["alpha.ops"] != 3 || snap["mid.depth"] != 5 {
		t.Fatalf("snapshot = %v", snap)
	}

	// Registered pointers stay live: later increments are visible.
	c1++
	depth = 9
	snap = r.Snapshot()
	if snap["zeta.ops"] != 8 || snap["mid.depth"] != 9 || len(snap) != 3 {
		t.Fatalf("snapshot after updates = %v", snap)
	}

	out := r.Render()
	if out != "alpha.ops 3\nmid.depth 9\nzeta.ops 8\n" {
		t.Fatalf("render:\n%s", out)
	}
}

// TestRegistryDuplicatePanics: a duplicate, empty-named or nil
// registration panics, for counters and gauges alike.
func TestRegistryDuplicatePanics(t *testing.T) {
	var c int64
	zero := func() int64 { return 0 }
	for _, tc := range []struct {
		name     string
		register func(r *Registry)
	}{
		{"duplicate gauge", func(r *Registry) { r.RegisterGauge("x.y", zero) }},
		{"duplicate counter", func(r *Registry) { r.RegisterCounter("x.y", &c) }},
		{"empty counter name", func(r *Registry) { r.RegisterCounter("", &c) }},
		{"empty gauge name", func(r *Registry) { r.RegisterGauge("", zero) }},
		{"nil counter", func(r *Registry) { r.RegisterCounter("x.z", nil) }},
		{"nil gauge", func(r *Registry) { r.RegisterGauge("x.z", nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.RegisterCounter("x.y", &c)
			defer func() {
				if recover() == nil {
					t.Fatal("registration did not panic")
				}
			}()
			tc.register(r)
		})
	}
}

// --- EventLog --------------------------------------------------------------

func TestEventLogRingBounded(t *testing.T) {
	l := NewEventLog(4, NewFlight())
	l.SetEnabled(true)
	for i := 0; i < 10; i++ {
		l.Instant("t", "ev", 1, i, sim.Time(i)*sim.Microsecond)
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4", l.Len())
	}
	if l.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", l.Dropped())
	}
	evs := l.Events()
	for i, e := range evs {
		if e.TID != 6+i { // oldest retained is event 6, oldest-first order
			t.Fatalf("event %d has tid %d", i, e.TID)
		}
	}
}

func TestEventLogDisabledAndNil(t *testing.T) {
	l := NewEventLog(8, NewFlight())
	l.Span("c", "n", 1, 1, 0, sim.Microsecond) // disabled: dropped silently
	l.Instant("c", "n", 1, 1, 0)
	if l.Enabled() || l.Len() != 0 || l.Dropped() != 0 || l.Rejected() != 0 {
		t.Fatal("disabled log recorded an event")
	}
}

func TestEventLogRingAllocatedLazily(t *testing.T) {
	// A log that stays disabled never allocates its ring, even while a
	// flight recorder receives its flow-tagged spans.
	f := NewFlight()
	l := NewEventLog(16, f)
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * sim.Microsecond
		l.FlowSpan("syscall", "phase", PIDSyscalls, 1, at, at+1, uint64(i%4+1), FlowStart, "pread")
		l.Instant("c", "n", 1, 1, at)
		l.Counter("c", "n", PIDUtil, 1, at, 1)
	}
	if l.buf != nil {
		t.Fatalf("disabled log allocated a %d-event ring", cap(l.buf))
	}
	if len(f.chains) == 0 {
		t.Fatal("flight recorder saw no chains")
	}
	if l.Capacity() != 16 || l.Len() != 0 || l.Dropped() != 0 || len(l.Events()) != 0 {
		t.Fatalf("cap=%d len=%d dropped=%d", l.Capacity(), l.Len(), l.Dropped())
	}

	// The first event sizes the ring exactly to the capacity.
	l = NewEventLog(3, NewFlight())
	l.SetEnabled(true)
	l.Instant("c", "n", 1, 0, 0)
	if cap(l.buf) != 3 || l.Len() != 1 {
		t.Fatalf("first event: ring cap %d len %d, want 3 and 1", cap(l.buf), l.Len())
	}

	// Wrap-around, drop counts and order are those of an eager ring.
	for i := 1; i < 8; i++ {
		l.Instant("c", "n", 1, i, sim.Time(i))
	}
	if l.Len() != 3 || l.Dropped() != 5 {
		t.Fatalf("len=%d dropped=%d, want 3 and 5", l.Len(), l.Dropped())
	}
	for i, e := range l.Events() {
		if e.TID != 5+i {
			t.Fatalf("event %d has tid %d, want %d", i, e.TID, 5+i)
		}
	}
}

func TestEventLogRejectsNegativeSpans(t *testing.T) {
	l := NewEventLog(8, NewFlight())
	l.SetEnabled(true)
	l.Span("c", "bad", 1, 1, 10*sim.Microsecond, 5*sim.Microsecond)
	if l.Len() != 0 || l.Rejected() != 1 {
		t.Fatalf("len=%d rejected=%d", l.Len(), l.Rejected())
	}
}

func TestChromeTraceExport(t *testing.T) {
	l := NewEventLog(16, NewFlight())
	l.SetEnabled(true)
	l.NameProcess(PIDGPU, "gpu")
	l.Span("gpu", "wave", PIDGPU, 3, 2*sim.Microsecond, 12*sim.Microsecond)
	l.Instant("gpu", "irq", PIDGPU, 3, 5*sim.Microsecond)

	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 3 { // metadata + span + instant
		t.Fatalf("got %d events", len(parsed.TraceEvents))
	}
	var sawSpan bool
	for _, e := range parsed.TraceEvents {
		if e.Dur < 0 {
			t.Fatalf("negative duration: %+v", e)
		}
		if e.Ph == "X" {
			sawSpan = true
			if e.Ts != 2 || e.Dur != 10 || e.TID != 3 {
				t.Fatalf("span fields: %+v", e)
			}
		}
	}
	if !sawSpan {
		t.Fatal("no complete-span event exported")
	}
}

// --- Histogram -------------------------------------------------------------

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	if h.N() != 1000 {
		t.Fatalf("n = %d", h.N())
	}
	if m := h.Mean(); math.Abs(m-500.5) > 1e-9 {
		t.Fatalf("mean = %f", m)
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %f/%f", h.Min(), h.Max())
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 500}, {95, 950}, {99, 990},
	} {
		got := h.Quantile(tc.p)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.06 {
			t.Fatalf("p%.0f = %f, want ~%f (rel err %.3f)", tc.p, got, tc.want, rel)
		}
	}
	if h.Quantile(0) != 1 || h.Quantile(100) != 1000 {
		t.Fatal("extreme quantiles must be exact min/max")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Add(42.5)
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := h.Quantile(p); got != 42.5 {
			t.Fatalf("p%.0f = %f, want 42.5", p, got)
		}
	}
	if h.Mean() != 42.5 || h.Min() != 42.5 || h.Max() != 42.5 {
		t.Fatal("single-sample stats")
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(50) != 0 || h.Mean() != 0 || h.N() != 0 {
		t.Fatal("empty histogram not zero")
	}
	// Negative/zero samples land in the underflow bucket without
	// corrupting anything; quantiles clamp to the exact min.
	h.Add(-3)
	h.Add(0)
	h.Add(10)
	if h.N() != 3 || h.Min() != -3 || h.Max() != 10 {
		t.Fatalf("stats: n=%d min=%f max=%f", h.N(), h.Min(), h.Max())
	}
	if q := h.Quantile(10); q < -3 || q > 10 {
		t.Fatalf("p10 = %f out of range", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 500; i++ {
		a.Add(float64(i))
	}
	for i := 501; i <= 1000; i++ {
		b.Add(float64(i))
	}
	a.Merge(b)
	a.Merge(nil)
	a.Merge(NewHistogram())
	if a.N() != 1000 || a.Min() != 1 || a.Max() != 1000 {
		t.Fatalf("merged: n=%d min=%f max=%f", a.N(), a.Min(), a.Max())
	}
	if got := a.Quantile(50); math.Abs(got-500)/500 > 0.06 {
		t.Fatalf("merged p50 = %f", got)
	}
	if s := a.String(); s == "" {
		t.Fatal("empty render")
	}
}

// refQuantile is Quantile as a linear scan from bucket 0, the reference
// the cursor-resuming Quantile must match bit for bit.
func refQuantile(h *Histogram, p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := p / 100 * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lo, hi := bucketBounds(i)
			return clamp(lo+(hi-lo)*((rank-prev)/float64(c)), h.min, h.max)
		}
	}
	return h.max
}

// TestHistogramQuantileCursorExact interleaves Add, Merge and Quantile
// over seeded random samples spanning the whole bucket range (underflow,
// negative and overflow values included) and requires every quantile to
// equal the linear-scan reference exactly.
func TestHistogramQuantileCursorExact(t *testing.T) {
	ps := []float64{50, 95, 99, 99.9}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sample := func() float64 {
			switch rng.Intn(20) {
			case 0:
				return -rng.Float64()
			case 1:
				return histMin * rng.Float64()
			case 2:
				return 1e300
			}
			return math.Exp(rng.Float64()*40 - 10)
		}
		h := NewHistogram()
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(100); {
			case r < 70:
				for n := rng.Intn(5) + 1; n > 0; n-- {
					h.Add(sample())
				}
			case r < 75:
				o := NewHistogram()
				for n := rng.Intn(50); n > 0; n-- {
					o.Add(sample())
				}
				h.Merge(o)
			default:
				p := ps[rng.Intn(len(ps))]
				want := refQuantile(h, p)
				if got := h.Quantile(p); got != want {
					t.Fatalf("seed %d op %d: p%g = %v, linear scan %v (n=%d)",
						seed, op, p, got, want, h.N())
				}
			}
		}
	}
}

// TestChromeTraceExportAfterWrap is the wrap-around golden test: push
// more spans than the ring holds, with deliberately out-of-order start
// times, and check the export contains exactly the newest capacity
// events, oldest-first and strictly time-ordered.
func TestChromeTraceExportAfterWrap(t *testing.T) {
	l := NewEventLog(4, NewFlight())
	l.SetEnabled(true)
	// 7 spans; starts are shuffled relative to push order because spans
	// land in the ring at their END time. The ring keeps the last 4
	// pushed: starts 90, 40, 60, 80 us.
	starts := []sim.Time{10, 30, 20, 90, 40, 60, 80}
	for i, s := range starts {
		start := s * sim.Microsecond
		l.Span("t", "s", 1, i, start, start+5*sim.Microsecond)
	}
	if l.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", l.Dropped())
	}

	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var ts []float64
	for _, e := range parsed.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Ph != "X" {
			t.Fatalf("unexpected event kind %q", e.Ph)
		}
		ts = append(ts, e.Ts)
	}
	want := []float64{40, 60, 80, 90} // survivors, sorted oldest-first
	if len(ts) != len(want) {
		t.Fatalf("exported %d spans, want %d (%v)", len(ts), len(want), ts)
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("export order %v, want %v", ts, want)
		}
	}
}

// --- Utilization tracks ----------------------------------------------------

// TestUtilTrackBinsBounded holds a track at 1 for 2,000 virtual seconds,
// once as one interval and once in 1 s steps: the track's bin width
// doubles until it needs at most sim.MaxSeriesBins bins, coarsening keeps
// the occupancy mass, and an idle track keeps its width.
func TestUtilTrackBinsBounded(t *testing.T) {
	const span = 2000 * sim.Second
	for _, step := range []sim.Time{span, sim.Second} {
		u := NewUtil(NewEventLog(0, NewFlight()))
		busy, idle := u.Track("busy", 1), u.Track("idle", 1)
		busy.Add(0, 1)
		for at := step; at <= span; at += step {
			busy.Add(at, 0)
		}
		busy.Add(span, -1)
		if n := busy.series.NumBins(); n > sim.MaxSeriesBins {
			t.Fatalf("step %v: %d bins, cap %d", step, n, sim.MaxSeriesBins)
		}
		if busy.series.BinWidth != 32*utilBin || idle.series.BinWidth != utilBin {
			t.Fatalf("step %v: bin widths busy %v idle %v, want %v and %v",
				step, busy.series.BinWidth, idle.series.BinWidth, 32*utilBin, utilBin)
		}
		var mass float64
		for _, v := range busy.series.Bins() {
			mass += v
		}
		if math.Abs(mass-float64(span)) > 1e-6*float64(span) || busy.Mean(span) != 1 {
			t.Fatalf("step %v: mass %g, mean %g; want %g, 1", step, mass, busy.Mean(span), float64(span))
		}
		out := u.Render(span)
		if !strings.Contains(out, "(timeline bin 32.000ms)") || !strings.Contains(out, "|@@@@") {
			t.Fatalf("step %v: render:\n%s", step, out)
		}
	}
}
