package experiments

import (
	"fmt"

	"genesys/internal/core"
	"genesys/internal/mem"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
	"genesys/internal/workloads"
)

// Table2Classification regenerates the §IV classification summary and a
// Table II-style excerpt of calls requiring hardware changes.
func Table2Classification() *Table {
	t := &Table{
		ID:    "table2",
		Title: "Classification of Linux system calls for GPU invocation (§IV, Table II)",
		Note: "Paper: 79% readily-implementable / 13% need GPU hardware changes / 8% need\n" +
			"extensive kernel changes, over Linux 4.11's 300+ x86-64 system calls.",
		Header: []string{"class", "count", "share", "examples"},
	}
	ready, hw, ext, total := syscalls.ClassCounts()
	pct := func(n int) string { return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total)) }
	sample := func(c syscalls.Class, n int) string {
		names := syscalls.ByClass(c)
		if len(names) > n {
			names = names[:n]
		}
		out := ""
		for i, s := range names {
			if i > 0 {
				out += ", "
			}
			out += s
		}
		return out
	}
	t.AddRow("readily-implementable", fmt.Sprint(ready), pct(ready), "read, write, pread64, mmap, madvise, ...")
	t.AddRow("needs GPU hardware changes", fmt.Sprint(hw), pct(hw), sample(syscalls.ClassHardware, 5)+", ...")
	t.AddRow("needs extensive kernel changes", fmt.Sprint(ext), pct(ext), sample(syscalls.ClassExtensive, 5)+", ...")
	t.AddRow("total", fmt.Sprint(total), "100%", fmt.Sprintf("%d implemented in this artifact", syscalls.ImplementedCount()))
	return t
}

// Table3Platform renders the simulated system configuration.
func Table3Platform(o Options) *Table {
	t := &Table{
		ID:     "table3",
		Title:  "Simulated system configuration (Table III analogue)",
		Header: []string{"component", "configuration"},
	}
	g := &grid{o: o}
	g.add(1, nil, func(m *platform.Machine) error {
		gc, c := m.Cfg.GPU, m.Cfg.CPU
		t.AddRow("CPU", fmt.Sprintf("%d cores @ %.1f GHz", c.Cores, float64(c.ClockMHz)/1000))
		t.AddRow("Integrated GPU", fmt.Sprintf("%d CUs @ %d MHz, SIMD-%d, %d wavefronts/CU",
			gc.CUs, gc.ClockMHz, gc.SIMDWidth, gc.WavefrontsPerCU))
		t.AddRow("Active HW work-items", fmt.Sprint(m.GPU.HWWorkItems()))
		t.AddRow("Syscall area", fmt.Sprintf("%d KiB (64 B/slot, one slot per active work-item)",
			m.Genesys.AreaBytes()/1024))
		t.AddRow("Memory", fmt.Sprintf("%.1f GB/s shared DRAM; GPU L2 %d lines",
			m.Cfg.Mem.DRAMBandwidth, m.Cfg.Mem.L2Lines))
		t.AddRow("Storage", fmt.Sprintf("SSD: %d channels x %.0f MB/s, %v command overhead",
			m.Cfg.SSD.Channels, m.Cfg.SSD.ChannelBandwidth*1000, m.Cfg.SSD.CommandOverhead))
		t.AddRow("OS", fmt.Sprintf("simulated Linux-like kernel, %d+ dynamic workers", m.Cfg.Kernel.Workers))
		return nil
	})
	g.run()
	return t
}

// Table4AtomicCosts profiles the GPU memory operations GENESYS uses on
// the syscall area (Table IV).
func Table4AtomicCosts(o Options) *Table {
	t := &Table{
		ID:    "table4",
		Title: "Profiled performance of GPU atomic operations (Table IV)",
		Note: "Paper: atomics are serviced at the L2 and cost microseconds; plain loads hit\n" +
			"the L1 at ~0.08 us. Ordering: cmp-swap > swap > atomic-load >> load.",
		Header: []string{"op", "time (us)"},
	}
	ops := []mem.Op{mem.OpCmpSwap, mem.OpSwap, mem.OpAtomicLoad, mem.OpLoad}
	g := &grid{o: o}
	times := make([][]float64, len(ops))
	for i, op := range ops {
		times[i] = each(g, nil, func(m *platform.Machine, _ int64) (float64, error) {
			const n = 200
			var elapsed sim.Time
			m.E.Spawn("probe", func(p *sim.Proc) {
				start := p.Now()
				for i := 0; i < n; i++ {
					if op == mem.OpLoad {
						m.Mem.GPULoad(p, 0)
					} else {
						m.Mem.GPUAtomic(p, op, 0)
					}
				}
				elapsed = p.Now() - start
			})
			err := m.Run()
			return (elapsed / n).Micro(), err
		})
	}
	g.run()
	for i, op := range ops {
		t.AddRow(op.String(), f2(summary(times[i])))
	}
	return t
}

// fig7Sizes are the file sizes swept (the paper goes to 2 GB on real
// hardware; the simulation sweeps the same two decades).
var fig7Sizes = []int64{4 << 20, 16 << 20, 64 << 20, 256 << 20}

// Fig7Granularity regenerates the invocation-granularity microbenchmark:
// pread on tmpfs at work-item / work-group / kernel granularity (left),
// plus the work-group size sweep (right).
func Fig7Granularity(o Options) *Table {
	t := &Table{
		ID:    "fig7",
		Title: "Impact of system call invocation granularity (pread on tmpfs)",
		Note: "Paper: work-item invocation floods the CPU and is worst; kernel granularity\n" +
			"serializes and suffers at large sizes; work-group granularity wins, and\n" +
			"larger work-groups help when per-call overheads matter.",
		Header: []string{"file size", "work-item (ms)", "work-group (ms)", "kernel (ms)"},
	}
	grans := []workloads.Granularity{workloads.GranWorkItem,
		workloads.GranWorkGroup, workloads.GranKernel}
	wgSizes := []int{64, 128, 256, 512, 1024}
	g := &grid{o: o, t: t}
	bySize := make([][][]float64, len(fig7Sizes))
	for i, size := range fig7Sizes {
		for _, gran := range grans {
			bySize[i] = append(bySize[i], each(g, nil, func(m *platform.Machine, _ int64) (float64, error) {
				res, err := workloads.RunPread(m, workloads.PreadConfig{
					FileSize: size, ChunkPerWI: 16 << 10, WGSize: 64,
					Granularity: gran, Wait: core.WaitPoll,
				})
				if err != nil {
					return 0, err
				}
				return res.ReadTime.Milli(), check(res.Validated, "fig7 %s %v: data not validated", byteSize(size), gran)
			}))
		}
	}
	// Right-hand side: work-group size sweep at small per-WI chunks.
	byWG := make([][]float64, len(wgSizes))
	for i, wg := range wgSizes {
		byWG[i] = each(g, nil, func(m *platform.Machine, _ int64) (float64, error) {
			res, err := workloads.RunPread(m, workloads.PreadConfig{
				FileSize: 16 << 20, ChunkPerWI: 1 << 10, WGSize: wg,
				Granularity: workloads.GranWorkGroup, Wait: core.WaitPoll,
			})
			if err != nil {
				return 0, err
			}
			return res.ReadTime.Milli(), check(res.Validated, "fig7 wg%d: data not validated", wg)
		})
	}
	g.run()
	for i, size := range fig7Sizes {
		row := []string{fmt.Sprintf("%d MiB", size>>20)}
		for _, vals := range bySize[i] {
			row = append(row, ms(summary(vals)))
		}
		t.AddRow(row...)
	}
	t.AddRow("", "", "", "")
	t.AddRow("-- WG size sweep --", "16 MiB file, 1 KiB/work-item", "", "")
	for i, wg := range wgSizes {
		t.AddRow(fmt.Sprintf("wg%d", wg), ms(summary(byWG[i])), "", "")
	}
	return t
}

// Fig8BlockingOrdering regenerates the blocking/ordering microbenchmark:
// DES-style block permutation with pwrite at work-group granularity.
func Fig8BlockingOrdering(o Options) *Table {
	t := &Table{
		ID:    "fig8",
		Title: "System call blocking and ordering semantics (block permutation + pwrite)",
		Note: "Paper: strong-block worst at low iteration counts (~30% over non-blocking);\n" +
			"weak-non-block best; all variants converge once compute dominates.",
		Header: []string{"iterations", "strong-block (us)", "strong-nonblock (us)",
			"weak-block (us)", "weak-nonblock (us)"},
	}
	type variant struct {
		blocking bool
		ordering core.Ordering
	}
	variants := []variant{
		{true, core.Strong}, {false, core.Strong},
		{true, core.Relaxed}, {false, core.Relaxed},
	}
	iterations := []int{1, 2, 4, 8, 16, 32}
	g := &grid{o: o, t: t}
	cells := make([][][]float64, len(iterations))
	for i, iters := range iterations {
		for _, v := range variants {
			cells[i] = append(cells[i], each(g, nil, func(m *platform.Machine, _ int64) (float64, error) {
				res, err := workloads.RunPermute(m, workloads.PermuteConfig{
					Blocks: 64, Iterations: iters,
					Blocking: v.blocking, Ordering: v.ordering, Wait: core.WaitPoll,
				})
				if err != nil {
					return 0, err
				}
				return res.PerPermutation.Micro(), check(res.Validated,
					"fig8 %d iterations, blocking %v, %v ordering: blocks not validated", iters, v.blocking, v.ordering)
			}))
		}
	}
	g.run()
	for i, iters := range iterations {
		row := []string{fmt.Sprint(iters)}
		for _, vals := range cells[i] {
			row = append(row, f2(summary(vals)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig9PollingContention regenerates the polling/memory-contention
// experiment: CPU access throughput vs. the number of polled GPU lines.
func Fig9PollingContention(o Options) *Table {
	t := &Table{
		ID:    "fig9",
		Title: "Impact of polling on memory contention",
		Note: "Paper: CPU access throughput is flat while the polled working set fits the\n" +
			"GPU L2 (4096 lines) and falls once polling spills to DRAM.",
		Header: []string{"polled lines", "CPU accesses/s (M)", "GPU L2 miss rate"},
	}
	type probe struct{ accesses, miss float64 }
	polled := []int{512, 1024, 2048, 4096, 8192, 16384, 32768}
	g := &grid{o: o}
	probes := make([][]probe, len(polled))
	for i, lines := range polled {
		probes[i] = each(g, nil, func(m *platform.Machine, _ int64) (probe, error) {
			res, err := workloads.RunPollProbe(m, workloads.PollProbeConfig{
				PolledLines: lines, PollerWaves: 128, Duration: sim.Millisecond,
			})
			return probe{res.CPUAccessesPerSec / 1e6, res.GPUL2MissRate}, err
		})
	}
	g.run()
	for i, lines := range polled {
		var s sim.Summary
		for _, p := range probes[i] {
			s.Add(p.accesses)
		}
		// The miss rate shown is the last seed's.
		miss := probes[i][len(probes[i])-1].miss
		t.AddRow(fmt.Sprint(lines), f2(&s), fmt.Sprintf("%.2f", miss))
	}
	return t
}

// Fig10Coalescing regenerates the interrupt-coalescing experiment:
// latency per byte for small-to-large per-call reads, with and without
// 8-way coalescing.
func Fig10Coalescing(o Options) *Table {
	t := &Table{
		ID:    "fig10",
		Title: "Implications of system call coalescing (work-item pread)",
		Note: "Paper: coalescing up to 8 interrupts cuts per-byte latency 10-15% for small\n" +
			"reads; the benefit fades as per-call work grows.",
		Header: []string{"bytes/call", "no coalescing (ns/B)", "coalesce ≤8 (ns/B)", "gain"},
	}
	chunks := []int64{128, 512, 2 << 10, 8 << 10, 64 << 10}
	g := &grid{o: o, t: t}
	run := func(chunk int64, window sim.Time, max int) []float64 {
		return each(g, nil, func(m *platform.Machine, _ int64) (float64, error) {
			m.Genesys.SetCoalescing(window, max)
			res, err := workloads.RunPread(m, workloads.PreadConfig{
				FileSize: 4096 * chunk, ChunkPerWI: chunk, WGSize: 64,
				Granularity: workloads.GranWorkItem, Wait: core.WaitHaltResume,
			})
			if err != nil {
				return 0, err
			}
			return res.LatencyPerByte(), check(res.Validated, "fig10 %s: data not validated", byteSize(chunk))
		})
	}
	offs := make([][]float64, len(chunks))
	ons := make([][]float64, len(chunks))
	for i, chunk := range chunks {
		offs[i] = run(chunk, 0, 1)
		ons[i] = run(chunk, 50*sim.Microsecond, 8)
	}
	g.run()
	for i, chunk := range chunks {
		off, on := summary(offs[i]), summary(ons[i])
		gain := "n/a"
		if on.Mean() > 0 {
			gain = fmt.Sprintf("%.1f%%", 100*(1-on.Mean()/off.Mean()))
		}
		t.AddRow(byteSize(chunk), f2(off), f2(on), gain)
	}
	return t
}

func byteSize(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%d MiB", n>>20)
	}
	if n >= 1<<10 {
		return fmt.Sprintf("%d KiB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}
