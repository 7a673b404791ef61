package platform_test

import (
	"strings"
	"testing"

	"genesys/internal/core"
	"genesys/internal/fault"
	"genesys/internal/platform"
	"genesys/internal/sim"
)

type runSnap struct {
	now  sim.Time
	snap map[string]int64
}

func snapAfterRun(t *testing.T, cfg platform.Config) runSnap {
	t.Helper()
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	runBlockingWorkload(t, m, core.WaitPoll)
	return runSnap{now: m.E.Now(), snap: m.Obs.Metrics.Snapshot()}
}

func sameRun(a, b runSnap) bool {
	if a.now != b.now || len(a.snap) != len(b.snap) {
		return false
	}
	for k, v := range a.snap {
		if b.snap[k] != v {
			return false
		}
	}
	return true
}

// TestNoFaultsIsZeroOverhead: a machine with Faults unset and one with an
// explicit empty plan run bit-identically — same final virtual time, same
// value for every metric. The fault subsystem being compiled in costs the
// default path nothing observable.
func TestNoFaultsIsZeroOverhead(t *testing.T) {
	nilCfg := platform.DefaultConfig()
	emptyCfg := platform.DefaultConfig()
	emptyCfg.Faults = &fault.Plan{Name: "empty"}
	a := snapAfterRun(t, nilCfg)
	b := snapAfterRun(t, emptyCfg)
	if !sameRun(a, b) {
		t.Fatalf("empty fault plan perturbed the run:\n nil:   t=%v %v\n empty: t=%v %v",
			a.now, a.snap, b.now, b.snap)
	}
	if a.snap["fault.injected"] != 0 || a.snap["genesys.retries"] != 0 {
		t.Fatalf("fault-free run has nonzero fault counters: %v", a.snap)
	}
}

// TestFaultRunsAreSeedDeterministic: same seed + same plan → the same
// injections, recoveries and final virtual time, run after run.
func TestFaultRunsAreSeedDeterministic(t *testing.T) {
	mk := func() runSnap {
		cfg := platform.DefaultConfig()
		cfg.Seed = 5
		plan, err := fault.PlanFor("all", 0.25)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &plan
		return snapAfterRun(t, cfg)
	}
	a, b := mk(), mk()
	if !sameRun(a, b) {
		t.Fatalf("seeded fault run diverged:\n first:  t=%v %v\n second: t=%v %v",
			a.now, a.snap, b.now, b.snap)
	}
	if a.snap["fault.injected"] == 0 {
		t.Fatal("plan 'all' at rate 0.25 injected nothing")
	}
}

// TestTotalInterruptLossSurfacesEINTR: with every doorbell interrupt
// dropped (rate 1.0) — including the retransmitted ones — the GENESYS
// watchdog exhausts MaxRetransmits and surfaces EINTR on the stuck slots
// instead of hanging. The run must reach quiescence with nothing
// outstanding, the blocked pollers all released.
func TestTotalInterruptLossSurfacesEINTR(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.Genesys.RetransmitTimeout = 50 * sim.Microsecond
	cfg.Genesys.MaxRetransmits = 4
	cfg.Faults = &fault.Plan{Name: "total-irq-loss", Rules: []fault.Rule{
		{Point: fault.IRQDrop, Rate: 1},
	}}
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	runBlockingWorkload(t, m, core.WaitPoll) // m.Run inside fails on hang

	if n := m.Genesys.Outstanding(); n != 0 {
		t.Fatalf("%d invocations still outstanding", n)
	}
	if m.Genesys.IRQRetransmits == 0 {
		t.Fatal("no retransmissions attempted")
	}
	if m.Inject.Surfaced == 0 {
		t.Fatal("total interrupt loss surfaced no errors")
	}
}

// TestPartialInterruptLossRecovers: at a loss rate below 1 the
// retransmission watchdog redelivers dropped doorbells and the workload
// completes without surfacing anything to the application.
func TestPartialInterruptLossRecovers(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.Seed = 3
	cfg.Faults = &fault.Plan{Name: "half-irq-loss", Rules: []fault.Rule{
		{Point: fault.IRQDrop, Rate: 0.5},
	}}
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	runBlockingWorkload(t, m, core.WaitPoll)

	if m.Inject.InjectedAt(fault.IRQDrop) == 0 {
		t.Fatal("rate-0.5 drop plan dropped nothing")
	}
	if m.Genesys.IRQRetransmits == 0 {
		t.Fatal("drops were not retransmitted")
	}
	if m.Inject.Surfaced != 0 {
		t.Fatalf("%d faults surfaced; retransmission should have recovered all",
			m.Inject.Surfaced)
	}
}

// TestFaultsSysfsView: /sys/genesys/faults renders the active plan and
// per-point injection counts.
func TestFaultsSysfsView(t *testing.T) {
	cfg := platform.DefaultConfig()
	plan, err := fault.PlanFor("worker-stall", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &plan
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	runBlockingWorkload(t, m, core.WaitPoll)

	data, err := m.ReadFile("/sys/genesys/faults")
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{"profile worker-stall",
		string(fault.WorkerStall), "injected", "recovered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("faults view lacks %q:\n%s", want, out)
		}
	}
}
