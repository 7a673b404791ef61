package core

import (
	"testing"

	"genesys/internal/sim"
)

// record must refuse call traces with unset or non-monotonic stamps
// rather than emit garbage samples — the defensive half of the mid-run
// attach fix.
func TestRecordSkipsPartialTraces(t *testing.T) {
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }
	full := callTrace{claim: us(1), ready: us(2), enqueued: us(7),
		picked: us(9), done: us(11), harvest: us(13)}

	tr := newTracer()
	tr.record(full)
	if tr.Calls() != 1 || tr.Skipped() != 0 {
		t.Fatalf("full trace: calls=%d skipped=%d", tr.Calls(), tr.Skipped())
	}

	partials := []callTrace{
		{},                           // nothing stamped
		{claim: us(1), ready: us(2)}, // the pre-fix mid-run shape
		{claim: us(1), ready: us(2), enqueued: us(7), picked: us(9)},               // no done
		{claim: us(5), ready: us(2), enqueued: us(7), picked: us(9), done: us(11)}, // ready < claim
		{claim: us(1), ready: us(8), enqueued: us(7), picked: us(9), done: us(11)}, // non-monotonic
	}
	for i, c := range partials {
		tr.record(c)
		if tr.Calls() != 1 {
			t.Fatalf("partial %d was recorded", i)
		}
	}
	if tr.Skipped() != len(partials) {
		t.Fatalf("skipped = %d, want %d", tr.Skipped(), len(partials))
	}
	for _, ph := range Phases() {
		if min := tr.Phase(ph).Min(); min < 0 {
			t.Fatalf("phase %s picked up a negative sample: %f", ph, min)
		}
	}

	// Non-blocking shape: harvest unset is legal and falls back to done.
	nb := full
	nb.harvest = 0
	tr.record(nb)
	if tr.Calls() != 2 || tr.Phase(PhaseCompletion).Min() != 0 {
		t.Fatalf("non-blocking trace mishandled: calls=%d", tr.Calls())
	}
}
