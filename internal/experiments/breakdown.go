package experiments

import (
	"fmt"

	"genesys/internal/core"
	"genesys/internal/gpu"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// quantCell renders a histogram's p50/p95/p99 as one table cell.
func quantCell(h *obs.Histogram) string {
	q := h.Percentiles(50, 95, 99)
	return fmt.Sprintf("%.2f/%.2f/%.2f", q[0], q[1], q[2])
}

// Breakdown decomposes the end-to-end latency of a blocking GPU system
// call into the paper's Figure 2 steps (GPU-side setup, interrupt
// delivery, kernel queueing, CPU processing, completion notification),
// for both wait modes and for an uncontended vs. a loaded machine. This
// is the quantitative form of the paper's §VI "design guidelines".
func Breakdown(o Options) *Table {
	t := &Table{
		ID:    "breakdown",
		Title: "End-to-end latency breakdown of one blocking GPU system call (Figure 2 steps)",
		Note: "Per-phase latency (us) of work-group-granularity pwrite(64B): mean row, then\n" +
			"p50/p95/p99 over every traced call of all runs. Under load (64 work-groups),\n" +
			"queueing dominates — the coalescing/granularity trade-offs of §V all move time\n" +
			"between these phases.",
		Header: append([]string{"configuration"}, append(core.Phases(), "total (us)")...),
	}
	type config struct {
		label string
		wait  core.WaitMode
		wgs   int
		tweak func(*platform.Config)
	}
	// Discrete GPU (§VI: "generalizes to discrete GPUs"): every phase
	// that crosses PCIe gets more expensive. Only the GPU and memory
	// change; the point's seed, faults and event cap stay.
	dgpu := func(c *platform.Config) {
		d := platform.DiscreteGPUConfig()
		c.GPU, c.Mem = d.GPU, d.Mem
	}
	configs := []config{
		{"idle, polling", core.WaitPoll, 1, nil},
		{"idle, halt-resume", core.WaitHaltResume, 1, nil},
		{"loaded (64 WGs), polling", core.WaitPoll, 64, nil},
		{"loaded (64 WGs), halt-resume", core.WaitHaltResume, 64, nil},
		{"discrete GPU, polling", core.WaitPoll, 1, dgpu},
		{"discrete GPU, halt-resume", core.WaitHaltResume, 1, dgpu},
	}
	g := &grid{o: o}
	tracers := make([][]*core.Tracer, len(configs))
	for i, c := range configs {
		tracers[i] = each(g, c.tweak, func(m *platform.Machine, _ int64) *core.Tracer {
			pr := m.NewProcess("bd")
			f, err := m.VFS.Open("/tmp/bd", 0x42)
			if err != nil {
				panic(err)
			}
			fd, _ := pr.FDs.Install(f)
			m.E.Spawn("host", func(p *sim.Proc) {
				k := m.GPU.Launch(p, gpu.Kernel{
					Name: "bd", WorkGroups: c.wgs, WGSize: 64,
					Fn: func(w *gpu.Wavefront) {
						for i := 0; i < 4; i++ {
							m.Genesys.InvokeWG(w, syscalls.Request{
								NR:   syscalls.SYS_pwrite64,
								Args: [6]uint64{uint64(fd), 64, uint64(64 * w.WG.ID)},
								Buf:  make([]byte, 64),
							}, core.Options{Blocking: true, Wait: c.wait,
								Ordering: core.Relaxed, Kind: core.Consumer})
						}
					},
				})
				k.Wait(p)
				m.Genesys.Drain(p)
			})
			if err := m.Run(); err != nil {
				panic(err)
			}
			return m.Genesys.Tracer()
		})
	}
	g.run()
	for i, c := range configs {
		phase := map[string]*sim.Summary{}
		phaseHist := map[string]*obs.Histogram{}
		for _, ph := range core.Phases() {
			phase[ph] = &sim.Summary{}
			phaseHist[ph] = obs.NewHistogram()
		}
		var total sim.Summary
		totalHist := obs.NewHistogram()
		for _, tr := range tracers[i] {
			for _, ph := range core.Phases() {
				phase[ph].Add(tr.Phase(ph).Mean())
				phaseHist[ph].Merge(tr.Phase(ph))
			}
			totalHist.Merge(tr.Total())
			total.Add(tr.TotalMean())
		}
		row := []string{c.label}
		for _, ph := range core.Phases() {
			row = append(row, fmt.Sprintf("%.2f", phase[ph].Mean()))
		}
		row = append(row, f2(&total))
		t.AddRow(row...)
		prow := []string{"  p50/p95/p99"}
		for _, ph := range core.Phases() {
			prow = append(prow, quantCell(phaseHist[ph]))
		}
		prow = append(prow, quantCell(totalHist))
		t.AddRow(prow...)
	}
	return t
}
