package platform

import (
	"fmt"
	"strings"

	"genesys/internal/core"
)

// RenderTop produces the /sys/genesys/top view: a one-screen live
// dashboard of the machine at the current virtual-time instant —
// utilization, engine scheduling mix, in-flight syscall slots by
// lifecycle phase, syscall latency summary and SLO-burn/flight state.
// gsh's `top` command refreshes it on a virtual-time interval. The
// render is a pure function of machine state (deterministic for a fixed
// seed and instant).
func (m *Machine) RenderTop() string {
	now := m.E.Now()
	var b strings.Builder
	fmt.Fprintf(&b, "genesys top — t=%v\n", now)

	fmt.Fprintf(&b, "util ")
	for _, t := range m.Obs.Util.Tracks() {
		fmt.Fprintf(&b, " %s=%d", shortTrack(t.Name()), t.Cur())
	}
	b.WriteString("\n")

	st := m.E.Stats()
	fmt.Fprintf(&b, "engine  events=%d ready-fast=%d callbacks=%d switches=%d pending=%d procs=%d\n",
		st.Scheduled, st.ReadyFast, st.CallbacksRun, st.ProcSwitches,
		m.E.Pending(), m.E.LiveProcs())
	fmt.Fprintf(&b, "far     scheduled=%d canceled=%d pending=%d peak=%d\n",
		st.FarScheduled, st.FarCanceled, m.E.FarPending(), st.FarPeak)

	fmt.Fprintf(&b, "kernel  workers=%d idle=%d queue=%d tasks=%d\n",
		m.OS.Workers(), m.OS.IdleWorkers(), m.OS.QueueDepth(), m.OS.TasksRun.Value())

	counts := m.Genesys.SlotStateCounts()
	fmt.Fprintf(&b, "slots   free=%d populating=%d ready=%d processing=%d finished=%d outstanding=%d\n",
		counts[core.SlotFree], counts[core.SlotPopulating], counts[core.SlotReady],
		counts[core.SlotProcessing], counts[core.SlotFinished], m.Genesys.Outstanding())

	fmt.Fprintf(&b, "calls   invocations=%d batches=%d retransmits=%d",
		m.Genesys.Invocations.Value(), m.Genesys.Batches.Value(),
		m.Genesys.IRQRetransmits.Value())
	if t := m.Genesys.Tracer(); t != nil && t.Calls() > 0 {
		h := t.Total()
		q := h.Percentiles(50, 99)
		fmt.Fprintf(&b, " traced=%d p50=%.2fus p99=%.2fus min=%.2fus max=%.2fus",
			t.Calls(), q[0], q[1], h.Min(), h.Max())
		if a := t.Aborted(); a > 0 {
			fmt.Fprintf(&b, " aborted=%d", a)
		}
	}
	b.WriteString("\n")

	fl := m.Obs.Flight
	n, bad := fl.BurnState()
	burnPct := 0.0
	if n > 0 {
		burnPct = 100 * float64(bad) / float64(n)
	}
	fmt.Fprintf(&b, "flight  chains=%d anomalies=%d bundles=%d burn=%d/%d (%.1f%% bad)\n",
		fl.Chains(), fl.Anomalies(), fl.BundleCount(), bad, n, burnPct)
	if reason, detail, at := fl.Last(); reason != "" {
		fmt.Fprintf(&b, "        last %s at %v: %s\n", reason, at, detail)
	}
	return b.String()
}

// shortTrack compresses a track name for the one-line util row
// ("gpu.busy_cus" → "cus", "oskern.busy_workers" → "workers").
func shortTrack(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimPrefix(name, "busy_")
	name = strings.TrimPrefix(name, "runnable_")
	return name
}
