package platform_test

import (
	"genesys/internal/fault"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
	"strings"
	"testing"

	"genesys/internal/core"
	"genesys/internal/obs"
	"genesys/internal/platform"
)

// TestFlightWiringAndSysfs: every machine carries an always-on flight
// recorder — fed by the event log's tee even with tracing disabled —
// whose state is exported as gauges and at /sys/genesys/flight, next
// to the /sys/genesys/top dashboard.
func TestFlightWiringAndSysfs(t *testing.T) {
	m := platform.New(platform.DefaultConfig())
	t.Cleanup(m.Shutdown)
	runBlockingWorkload(t, m, core.WaitPoll)

	// Tracing was never enabled, yet the recorder saw the causal chains.
	if m.Obs.Events.Len() != 0 {
		t.Fatalf("event ring enabled unexpectedly: %d events", m.Obs.Events.Len())
	}
	if m.Obs.Flight.Chains() == 0 {
		t.Fatal("flight recorder saw no chains from the tee")
	}
	snap := m.Obs.Metrics.Snapshot()
	for _, name := range []string{"obs.flight_anomalies", "obs.flight_bundles",
		"obs.flight_chains", "obs.flight_suppressed"} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("gauge %q not registered", name)
		}
	}
	if snap["obs.flight_chains"] == 0 {
		t.Fatal("obs.flight_chains gauge is zero")
	}
	data, err := m.ReadFile("/sys/genesys/flight")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "flight recorder") {
		t.Fatalf("flight view:\n%s", data)
	}
	top, err := m.ReadFile("/sys/genesys/top")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"genesys top", "util ", "engine ",
		"kernel ", "slots ", "calls ", "flight "} {
		if !strings.Contains(string(top), want) {
			t.Fatalf("top view lacks %q:\n%s", want, top)
		}
	}
}

// TestEventCapConfig: Config.EventCap resizes the event ring; 0 keeps
// the default.
func TestEventCapConfig(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.EventCap = 128
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	if got := m.Obs.Events.Capacity(); got != 128 {
		t.Fatalf("capacity = %d, want 128", got)
	}
	m2 := platform.New(platform.DefaultConfig())
	t.Cleanup(m2.Shutdown)
	if got := m2.Obs.Events.Capacity(); got != obs.DefaultEventCap {
		t.Fatalf("default capacity = %d, want %d", got, obs.DefaultEventCap)
	}
}

// TestLatencyOutlierBundle makes the latency-outlier detector fire on a
// real machine: one wavefront issues 129 blocking tmpfs pwrites back to
// back, 24.55 us each, and a worker stall holds back only the last one
// until the stall detector re-dispatches it. The first 128 calls arm the
// detector (its minimum sample count) at a running p99 of 24.55 us; the
// stalled call exceeds 16 times that. The bundle names the stalled
// call's trace, and its critpath snapshot already counts that call.
func TestLatencyOutlierBundle(t *testing.T) {
	cfg := platform.DefaultConfig()
	// The 128th call completes at 3.162 ms; the window catches only the
	// 129th call's dispatch.
	cfg.Faults = &fault.Plan{Name: "one-stall", Rules: []fault.Rule{{
		Point: fault.WorkerStall, Rate: 1,
		After: 3165 * sim.Microsecond, Until: 3200 * sim.Microsecond,
		Param: int64(2 * sim.Millisecond),
	}}}
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	pr := m.NewProcess("outlier")
	f, err := m.VFS.Open("/tmp/outlier", fs.O_CREAT|fs.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := pr.FDs.Install(f)
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "outlier", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				for i := 0; i < 129; i++ {
					m.Genesys.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 8, uint64(8 * i)},
						Buf:  make([]byte, 8),
					}, core.Options{Blocking: true, Wait: core.WaitPoll,
						Ordering: core.Relaxed, Kind: core.Consumer})
				}
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Inject.InjectedAt(fault.WorkerStall); got != 1 {
		t.Fatalf("%d worker stalls injected, want 1", got)
	}
	bundles := m.Obs.Flight.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("%d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if b.Reason != "latency-outlier" || len(b.TraceIDs) != 1 || b.TraceIDs[0] != 129 ||
		b.AtNs != 3559550 {
		t.Fatalf("bundle %s traces=%v at=%d, want latency-outlier [129] at 3559550",
			b.Reason, b.TraceIDs, b.AtNs)
	}
	const detail = "pwrite64 trace=129 total=397.15us > 16x running p99=24.55us (n=128)"
	if b.Detail != detail {
		t.Fatalf("detail:\n got %s\nwant %s", b.Detail, detail)
	}
	const critpath = `critical-path attribution over 129 traced call(s):
  syscall           calls  abrt   mean-us    p95-us    p99-us    min-us    max-us  dominant     setup%  deliv%  queue%   proc%  compl%
  pwrite64            129     0     27.44     25.18     25.26     24.55    397.15  queueing       15.5    29.1    39.8     5.5    10.2
  attributed 100.0% of end-to-end latency to the 5 named stages
  exemplars (worst retained invocations):
    pwrite64         trace=129 total=397.15us at=3.560ms
    pwrite64         trace=1 total=24.55us at=44.55us
    pwrite64         trace=2 total=24.55us at=69.10us
`
	if got := b.Snapshots["critpath"]; got != critpath {
		t.Fatalf("critpath snapshot:\n%s\nwant:\n%s", got, critpath)
	}
}
