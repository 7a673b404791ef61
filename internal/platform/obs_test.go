package platform_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"genesys/internal/core"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// runBlockingWorkload drives a small kernel that issues blocking pwrites
// through GENESYS, exercising the GPU, kernel-worker and syscall paths.
func runBlockingWorkload(t *testing.T, m *platform.Machine, wait core.WaitMode) {
	t.Helper()
	pr := m.NewProcess("obs")
	f, err := m.VFS.Open("/tmp/obs", fs.O_CREAT|fs.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := pr.FDs.Install(f)
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "obs", WorkGroups: 4, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				for i := 0; i < 2; i++ {
					m.Genesys.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 16, uint64(32*w.WG.ID + 16*i)},
						Buf:  make([]byte, 16),
					}, core.Options{Blocking: true, Wait: wait,
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
}

func TestMetricsRegistryAndSysfs(t *testing.T) {
	cfg := platform.DefaultConfig()
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	runBlockingWorkload(t, m, core.WaitPoll)

	snap := m.Obs.Metrics.Snapshot()
	for _, name := range []string{
		"genesys.invocations", "genesys.slot_conflicts", "gpu.resumes",
		"gpu.interrupts", "oskern.tasks_run", "mem.atomic_ops",
		"cpu.busy_ns", "blockdev.bytes_read", "netstack.sent", "vmm.free_pages",
		"fault.injected", "fault.recovered", "fault.surfaced",
		"genesys.retries", "genesys.irq_retransmits",
		"oskern.redispatches", "blockdev.retries",
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("metric %q not registered", name)
		}
	}
	// Fault counters register even on a fault-free machine — and stay 0.
	for _, name := range []string{"fault.injected", "fault.recovered",
		"fault.surfaced", "genesys.retries", "genesys.irq_retransmits"} {
		if snap[name] != 0 {
			t.Fatalf("fault-free machine has %s = %d", name, snap[name])
		}
	}
	if snap["genesys.invocations"] != 8 {
		t.Fatalf("genesys.invocations = %d, want 8", snap["genesys.invocations"])
	}
	if snap["gpu.interrupts"] == 0 || snap["mem.atomic_ops"] == 0 {
		t.Fatal("hot-path counters stayed zero")
	}

	// The registry is served at /sys/genesys/metrics...
	data, err := m.ReadFile("/sys/genesys/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "genesys.slot_conflicts ") ||
		!strings.Contains(out, "gpu.resumes ") {
		t.Fatalf("metrics file misses required entries:\n%s", out)
	}
	// ...sorted.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("metrics not sorted: %q before %q", lines[i-1], lines[i])
		}
	}

	// The legacy stats file now exports slot_conflicts too.
	stats, err := m.ReadFile("/sys/genesys/stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stats), "slot_conflicts ") {
		t.Fatalf("stats file misses slot_conflicts:\n%s", stats)
	}
}

func TestChromeTraceExportFromRun(t *testing.T) {
	cfg := platform.DefaultConfig()
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	m.Obs.Events.SetEnabled(true)
	runBlockingWorkload(t, m, core.WaitHaltResume) // halt-resume → halt spans too

	if m.Obs.Events.Len() == 0 {
		t.Fatal("no events recorded")
	}
	if m.Obs.Events.Rejected() != 0 {
		t.Fatalf("%d negative-duration spans rejected", m.Obs.Events.Rejected())
	}

	var buf bytes.Buffer
	if err := m.Obs.Events.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	sawPID := map[int]bool{}
	sawCat := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		if e.Dur < 0 || e.Ts < 0 {
			t.Fatalf("negative ts/dur: %+v", e)
		}
		if e.Ph != "M" {
			sawPID[e.PID] = true
			sawCat[e.Cat] = true
		}
	}
	for _, pid := range []int{obs.PIDGPU, obs.PIDKernel, obs.PIDSyscalls} {
		if !sawPID[pid] {
			t.Fatalf("no events from pid %d; pids seen: %v", pid, sawPID)
		}
	}
	for _, cat := range []string{"gpu", "kernel", "syscall"} {
		if !sawCat[cat] {
			t.Fatalf("no %q events; cats seen: %v", cat, sawCat)
		}
	}
	// Syscall life-cycle spans carry the paper's Figure 2 phase names.
	var phases int
	for _, e := range parsed.TraceEvents {
		if e.Cat == "syscall" && e.Ph == "X" {
			phases++
		}
	}
	if phases < 8*4 { // 8 blocking calls × at least 4 spans each
		t.Fatalf("only %d syscall phase spans", phases)
	}
}

// TestFlowLinkedSyscallChain is the causal-tracing acceptance test: a
// traced blocking run must export, for at least one syscall, a flow
// chain ("s" start … "t" steps … "f" end, same flow id) whose member
// events span the GPU, IRQ, workqueue, kernel-worker and completion
// timelines — the arrow chain one syscall draws across rows in
// chrome://tracing.
func TestFlowLinkedSyscallChain(t *testing.T) {
	cfg := platform.DefaultConfig()
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	m.Obs.Events.SetEnabled(true)
	runBlockingWorkload(t, m, core.WaitHaltResume)

	var buf bytes.Buffer
	if err := m.Obs.Events.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
			ID  uint64 `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	type chain struct {
		start, end bool
		pids       map[int]bool
	}
	chains := map[uint64]*chain{}
	for _, e := range parsed.TraceEvents {
		if e.Ph != "s" && e.Ph != "t" && e.Ph != "f" {
			continue
		}
		c := chains[e.ID]
		if c == nil {
			c = &chain{pids: map[int]bool{}}
			chains[e.ID] = c
		}
		c.pids[e.PID] = true
		if e.Ph == "s" {
			c.start = true
		}
		if e.Ph == "f" {
			c.end = true
		}
	}
	if len(chains) == 0 {
		t.Fatal("trace contains no flow events at all")
	}
	want := []int{obs.PIDGPU, obs.PIDIRQ, obs.PIDWorkqueue,
		obs.PIDKernel, obs.PIDSyscalls}
	var full int
	for _, c := range chains {
		if !c.start || !c.end {
			continue
		}
		ok := true
		for _, pid := range want {
			if !c.pids[pid] {
				ok = false
				break
			}
		}
		if ok {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no flow chain crosses all of pids %v; %d chains seen", want, len(chains))
	}

	// The critpath view attributes (essentially) all end-to-end latency
	// to the five named stages.
	data, err := m.ReadFile("/sys/genesys/critpath")
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	i := strings.Index(out, "attributed ")
	if i < 0 {
		t.Fatalf("critpath lacks attribution footer:\n%s", out)
	}
	var pct float64
	if _, err := fmt.Sscanf(out[i:], "attributed %f%%", &pct); err != nil {
		t.Fatalf("unparseable attribution %q: %v", out[i:], err)
	}
	if pct < 95 {
		t.Fatalf("only %.1f%% of latency attributed, want >= 95%%:\n%s", pct, out)
	}
	if !strings.Contains(out, "pwrite64") {
		t.Fatalf("critpath table lacks pwrite64 row:\n%s", out)
	}
}

// TestMetricNamesPinned pins the metric name set of a default machine.
// The benchmark's golden digests hash Metrics.Render(), so a metric that
// is dropped, renamed or added changes them; this test names the change.
func TestMetricNamesPinned(t *testing.T) {
	m := platform.New(platform.DefaultConfig())
	t.Cleanup(m.Shutdown)
	want := strings.Fields(`
		blockdev.bytes_read blockdev.bytes_written blockdev.commands blockdev.retries
		cpu.busy_ns
		fault.injected fault.recovered fault.surfaced
		genesys.batched_waves genesys.batches genesys.invocations
		genesys.irq_retransmits genesys.orphans_adopted genesys.orphans_completed
		genesys.orphans_live genesys.outstanding genesys.retries
		genesys.slot_conflicts genesys.total_lat_max_ns genesys.total_lat_min_ns
		gpu.halts gpu.interrupts gpu.kernels_launched gpu.resumes gpu.wgs_dispatched
		mem.atomic_ops mem.dram_accesses mem.l2_hits mem.l2_misses
		netstack.dropped netstack.sent netstack.stream_bytes netstack.stream_conns
		netstack.stream_refused
		obs.events_dropped obs.events_rejected obs.flight_anomalies
		obs.flight_bundles obs.flight_chains obs.flight_suppressed
		oskern.orphans_reaped oskern.queue_depth oskern.redispatches
		oskern.syscalls oskern.tasks_run oskern.workers
		sim.callbacks_run sim.events_pending sim.events_ready_fast
		sim.events_total sim.proc_switches_total sim.procs_live sim.procs_reaped
		sim.timers_canceled sim.wheel_canceled sim.wheel_peak sim.wheel_pending
		sim.wheel_scheduled
		vmm.free_pages`)
	if got := m.Obs.Metrics.Names(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("metric names changed:\n got %v\nwant %v", got, want)
	}
}
