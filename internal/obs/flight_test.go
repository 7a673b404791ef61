package obs

import (
	"strings"
	"testing"

	"genesys/internal/sim"
)

// span builds one flow-tagged span event for flight tests.
func span(flow uint64, phase FlowPhase, start, end sim.Time) Event {
	return Event{Kind: KindSpan, Cat: "syscall", Name: "phase", PID: PIDSyscalls,
		TID: 1, Start: start, End: end, Flow: flow, FlowPhase: phase, FlowName: "pread"}
}

func TestFlightChainRetentionAndEviction(t *testing.T) {
	f := NewFlight()
	f.addSpan(span(1, FlowStart, 0, 10))
	f.addSpan(span(1, FlowEnd, 10, 20))
	for id := uint64(2); id <= flightChainCap; id++ {
		f.addSpan(span(id, FlowStart, 5, 15))
	}
	if f.Chains() != flightChainCap || f.Evicted() != 0 {
		t.Fatalf("chains=%d evicted=%d", f.Chains(), f.Evicted())
	}
	// One chain past the cap evicts the oldest (trace 1).
	f.addSpan(span(flightChainCap+1, FlowStart, 20, 30))
	if f.Chains() != flightChainCap || f.Evicted() != 1 {
		t.Fatalf("after eviction: chains=%d evicted=%d", f.Chains(), f.Evicted())
	}
	if f.chains[1] != nil || f.chains[2] == nil || f.chains[flightChainCap+1] == nil {
		t.Fatal("evicted the wrong chain")
	}
}

func TestFlightLatencyOutlierDetector(t *testing.T) {
	f := NewFlight()
	f.addSpan(span(99, FlowStart, 0, 10))
	f.addSpan(span(99, FlowEnd, 10, 25*1000))
	// Not armed until outlierMinCalls samples precede the call, and never
	// against an empty (zero) p99.
	f.NoteCall("pread", 1, 1000, sim.Microsecond, outlierMinCalls-1, 25)
	f.NoteCall("pread", 2, 1000, 2*sim.Microsecond, outlierMinCalls, 0)
	if f.Anomalies() != 0 {
		t.Fatalf("fired while arming: %d", f.Anomalies())
	}
	// Exactly factor × p99 (16 × 25 = 400) does not trigger: strictly
	// greater is required.
	f.NoteCall("pread", 98, 400, 100*sim.Microsecond, outlierMinCalls, 25)
	if f.Anomalies() != 0 {
		t.Fatalf("fired at threshold boundary: %d", f.Anomalies())
	}
	f.NoteCall("pread", 99, 400.5, 200*sim.Microsecond, outlierMinCalls, 25)
	if f.Anomalies() != 1 || f.BundleCount() != 1 {
		t.Fatalf("anomalies=%d bundles=%d", f.Anomalies(), f.BundleCount())
	}
	b := f.Bundles()[0]
	if b.Reason != "latency-outlier" || len(b.TraceIDs) != 1 || b.TraceIDs[0] != 99 {
		t.Fatalf("bundle: reason=%s traces=%v", b.Reason, b.TraceIDs)
	}
	const detail = "pread trace=99 total=400.50us > 16x running p99=25.00us (n=128)"
	if b.Detail != detail {
		t.Fatalf("detail: %s", b.Detail)
	}
}

func TestFlightBurnRateDetector(t *testing.T) {
	f := NewFlight()
	at := func(i int) sim.Time { return sim.Time(i) * 10 * sim.Microsecond }
	// One outcome short of burnMinRequests: never fires even though all
	// are bad.
	for i := 0; i < burnMinRequests-1; i++ {
		f.NoteRequest(at(i), false)
	}
	if f.Anomalies() != 0 {
		t.Fatalf("fired under burnMinRequests: %d", f.Anomalies())
	}
	// A good outcome fills the window: 63 of 64 bad ≥ 25%.
	f.NoteRequest(at(burnMinRequests-1), true)
	if f.Anomalies() != 1 {
		t.Fatalf("burn did not fire: %d", f.Anomalies())
	}
	if _, detail, _ := f.Last(); detail != "63/64 requests bad (98.4%) within 1.000ms window" {
		t.Fatalf("detail: %s", detail)
	}
	// Re-armed only after a full window: more bad outcomes inside the
	// re-arm window are accounted but do not trigger again.
	f.NoteRequest(at(burnMinRequests), false)
	if f.Anomalies() != 1 {
		t.Fatalf("burn re-fired inside re-arm window: %d", f.Anomalies())
	}
	// Old samples slide out of the window.
	f.NoteRequest(at(burnMinRequests)+2*burnWindow, true)
	if n, bad := f.BurnState(); n != 1 || bad != 0 {
		t.Fatalf("window did not slide: n=%d bad=%d", n, bad)
	}
}

func TestFlightCooldownAndBundleCap(t *testing.T) {
	f := NewFlight()
	us := sim.Microsecond
	f.NoteAbort("pread", 1, 10*us)
	f.NoteAbort("pread", 2, 10*us+bundleCooldown-1) // inside cooldown
	if f.BundleCount() != 1 || f.Suppressed() != 1 {
		t.Fatalf("bundles=%d suppressed=%d", f.BundleCount(), f.Suppressed())
	}
	// Past cooldown each time, until the cap.
	at := 10 * us
	for i := 1; i < flightBundleCap; i++ {
		at += bundleCooldown
		f.NoteAbort("pread", uint64(2+i), at)
	}
	f.NoteAbort("pread", 99, at+bundleCooldown) // past cooldown but capped
	if f.BundleCount() != flightBundleCap || f.Suppressed() != 2 ||
		f.Anomalies() != flightBundleCap+2 {
		t.Fatalf("bundles=%d suppressed=%d anomalies=%d",
			f.BundleCount(), f.Suppressed(), f.Anomalies())
	}
}

func TestFlightBundleFiltersTraceAndNeighbors(t *testing.T) {
	f := NewFlight()
	us := sim.Microsecond
	// Implicated chain 7 spans [100us, 140us].
	f.addSpan(span(7, FlowStart, 100*us, 120*us))
	f.addSpan(span(7, FlowEnd, 120*us, 140*us))
	// Chain 8 starts inside the window widened by neighborMargin; chain
	// 9 starts just past it.
	f.addSpan(span(8, FlowStart, 140*us+neighborMargin, 200*us))
	f.addSpan(span(9, FlowStart, 140*us+neighborMargin+1, 320*us))
	f.AddSnapshot("state", func() []byte { return []byte("frozen") })
	f.NoteAbort("pread", 7, 140*us)

	b := f.Bundles()[0]
	if len(b.TraceIDs) != 1 || b.TraceIDs[0] != 7 {
		t.Fatalf("traces: %v", b.TraceIDs)
	}
	if len(b.Neighbors) != 1 || b.Neighbors[0] != 8 {
		t.Fatalf("neighbors: %v", b.Neighbors)
	}
	if b.Snapshots["state"] != "frozen" {
		t.Fatalf("snapshots: %v", b.Snapshots)
	}
	// The filtered trace holds exactly the implicated + neighbor flow
	// chains, never chain 9's.
	if len(b.Trace.TraceEvents) == 0 {
		t.Fatal("empty filtered trace")
	}
	flows := map[uint64]bool{}
	for _, e := range b.Trace.TraceEvents {
		if e.ID != 0 {
			flows[e.ID] = true
		}
	}
	if !flows[7] || !flows[8] || flows[9] {
		t.Fatalf("filtered trace flows wrong: %v\n%s", flows, b.JSON())
	}
	if b.Name() != "ANOMALY_000_watchdog-exhausted.json" {
		t.Fatalf("name: %s", b.Name())
	}
}

func TestFlightDetectorsWithoutTracesImplicateRecentDone(t *testing.T) {
	f := NewFlight()
	us := sim.Microsecond
	for id := uint64(1); id <= 6; id++ {
		f.addSpan(span(id, FlowStart, sim.Time(id)*10*us, sim.Time(id)*10*us+5*us))
		if id != 6 { // chain 6 stays in flight
			f.addSpan(span(id, FlowEnd, sim.Time(id)*10*us+5*us, sim.Time(id)*10*us+8*us))
		}
	}
	f.NoteSurfaced(100 * us)
	b := f.Bundles()[0]
	// The 4 most recently *completed* chains: 2..5 (6 is not done).
	want := []uint64{2, 3, 4, 5}
	if len(b.TraceIDs) != len(want) {
		t.Fatalf("traces: %v", b.TraceIDs)
	}
	for i, id := range want {
		if b.TraceIDs[i] != id {
			t.Fatalf("traces: %v want %v", b.TraceIDs, want)
		}
	}
}

func TestFlightTeeWorksWithRingDisabled(t *testing.T) {
	f := NewFlight()
	l := NewEventLog(8, f)
	l.FlowSpan("syscall", "queueing", PIDSyscalls, 1, 0, 10, 42, FlowStart, "pread")
	l.FlowSpan("syscall", "completion", PIDSyscalls, 1, 10, 20, 42, FlowEnd, "pread")
	if f.Chains() != 1 || !f.chains[42].done {
		t.Fatalf("tee missed spans: chains=%d", f.Chains())
	}
	// Ring itself stayed disabled: no retained events, no drops.
	if l.Len() != 0 {
		t.Fatalf("disabled ring retained %d events", l.Len())
	}
	// Negative-duration spans are refused without perturbing the
	// disabled ring's rejected counter (BENCH byte-identity).
	l.FlowSpan("syscall", "bogus", PIDSyscalls, 1, 20, 10, 43, FlowStart, "pread")
	if f.Chains() != 1 || l.Rejected() != 0 {
		t.Fatalf("negative span leaked: chains=%d rejected=%d", f.Chains(), l.Rejected())
	}
}

func TestFlightRenderAndNilSafety(t *testing.T) {
	f := NewFlight()
	f.NoteAbort("pread", 1, 50*sim.Microsecond)
	out := f.Render()
	for _, want := range []string{"anomalies 1", "last trigger watchdog-exhausted",
		"ANOMALY_000_watchdog-exhausted.json"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram()
	h.AddEx(10, 1, 100)
	h.AddEx(50, 2, 200)
	h.AddEx(30, 3, 300)
	h.AddEx(20, 4, 400)
	ex := h.Exemplars()
	if len(ex) != ExemplarK {
		t.Fatalf("kept %d exemplars", len(ex))
	}
	// Top-K by value, descending: 50, 30, 20.
	if ex[0].Value != 50 || ex[1].Value != 30 || ex[2].Value != 20 {
		t.Fatalf("exemplars: %+v", ex)
	}
	if ex[0].Trace != 2 || ex[0].At != 200 {
		t.Fatalf("exemplar identity lost: %+v", ex[0])
	}
	// Ties keep the earliest sample (strictly-greater insertion), so
	// renders stay byte-stable across equal-latency calls.
	h.AddEx(50, 9, 900)
	if ex = h.Exemplars(); ex[0].Trace != 2 {
		t.Fatalf("tie displaced earlier exemplar: %+v", ex[0])
	}
	// Merge carries exemplars across histograms.
	other := NewHistogram()
	other.AddEx(99, 7, 700)
	h.Merge(other)
	if ex = h.Exemplars(); ex[0].Value != 99 || ex[0].Trace != 7 {
		t.Fatalf("merge lost exemplar: %+v", ex)
	}
	if s := h.String(); !strings.Contains(s, "min=") || !strings.Contains(s, "max=") {
		t.Fatalf("render lacks min/max: %s", s)
	}
}
