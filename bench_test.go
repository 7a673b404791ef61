// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment driver
// and reports the headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Absolute numbers are the simulator's;
// the shapes (who wins, by what factor, where crossovers fall) are the
// reproduction target — see EXPERIMENTS.md for the paper-vs-measured
// record.
package genesys_test

import (
	"strconv"
	"strings"
	"testing"

	"genesys/internal/core"
	"genesys/internal/experiments"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
	"genesys/internal/workloads"
)

func benchOptions() experiments.Options {
	return experiments.Options{Runs: 1, BaseSeed: 1}
}

// parseMean extracts the numeric mean from a "x.xx ± y.yy" table cell.
func parseMean(cell string) float64 {
	f := strings.Fields(cell)
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// cellOf returns table row r, column c (0 if out of range).
func cellOf(t *experiments.Table, r, c int) string {
	if r < len(t.Rows) && c < len(t.Rows[r]) {
		return t.Rows[r][c]
	}
	return ""
}

func BenchmarkTable2Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table2Classification()
	}
	ready, hw, ext, total := syscalls.ClassCounts()
	b.ReportMetric(100*float64(ready)/float64(total), "%readily")
	b.ReportMetric(100*float64(hw)/float64(total), "%hw-changes")
	b.ReportMetric(100*float64(ext)/float64(total), "%extensive")
}

func BenchmarkTable4AtomicCosts(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Table4AtomicCosts(benchOptions())
	}
	b.ReportMetric(parseMean(cellOf(t, 0, 1)), "cmpswap-us")
	b.ReportMetric(parseMean(cellOf(t, 1, 1)), "swap-us")
	b.ReportMetric(parseMean(cellOf(t, 2, 1)), "atomicload-us")
	b.ReportMetric(parseMean(cellOf(t, 3, 1)), "load-us")
}

func BenchmarkFig7InvocationGranularity(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig7Granularity(benchOptions())
	}
	// Largest-size row: work-item, work-group, kernel read times.
	b.ReportMetric(parseMean(cellOf(t, 3, 1)), "wi-ms")
	b.ReportMetric(parseMean(cellOf(t, 3, 2)), "wg-ms")
	b.ReportMetric(parseMean(cellOf(t, 3, 3)), "kernel-ms")
}

func BenchmarkFig8BlockingOrdering(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig8BlockingOrdering(benchOptions())
	}
	// Iteration-count 1 row: strong-block vs weak-nonblock.
	b.ReportMetric(parseMean(cellOf(t, 0, 1)), "strongblock-us")
	b.ReportMetric(parseMean(cellOf(t, 0, 4)), "weaknonblock-us")
}

func BenchmarkFig9PollingContention(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig9PollingContention(benchOptions())
	}
	// Below-knee (4096 lines) vs far-past-knee (32768 lines) throughput.
	b.ReportMetric(parseMean(cellOf(t, 3, 1)), "atknee-Macc/s")
	b.ReportMetric(parseMean(cellOf(t, 6, 1)), "pastknee-Macc/s")
}

func BenchmarkFig10Coalescing(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig10Coalescing(benchOptions())
	}
	b.ReportMetric(parseMean(cellOf(t, 0, 1)), "small-off-ns/B")
	b.ReportMetric(parseMean(cellOf(t, 0, 2)), "small-on-ns/B")
}

func BenchmarkFig11MiniAMR(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig11MiniAMR(benchOptions())
	}
	b.ReportMetric(parseMean(cellOf(t, 1, 3)), "rss3gb-peak-MiB")
	b.ReportMetric(parseMean(cellOf(t, 2, 3)), "rss4gb-peak-MiB")
}

func BenchmarkFig12SignalSearch(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig12SignalSearch(benchOptions())
	}
	base := parseMean(cellOf(t, 0, 1))
	overlap := parseMean(cellOf(t, 1, 1))
	if overlap > 0 {
		b.ReportMetric(base/overlap, "speedup")
	}
}

func BenchmarkFig13aGrep(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig13aGrep(benchOptions())
	}
	cpu := parseMean(cellOf(t, 0, 1))
	omp := parseMean(cellOf(t, 1, 1))
	halt := parseMean(cellOf(t, 4, 1))
	if halt > 0 {
		b.ReportMetric(cpu/halt, "vs-cpu")
		b.ReportMetric(omp/halt, "vs-openmp")
	}
}

func BenchmarkFig13bWordcount(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig13bWordcount(benchOptions())
	}
	cpu := parseMean(cellOf(t, 0, 1))
	gen := parseMean(cellOf(t, 2, 1))
	if gen > 0 {
		b.ReportMetric(cpu/gen, "genesys-speedup")
	}
}

func BenchmarkFig14WordcountTraces(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig14WordcountTraces(benchOptions())
	}
	b.ReportMetric(parseMean(cellOf(t, 0, 1)), "cpu-MB/s")
	b.ReportMetric(parseMean(cellOf(t, 1, 1)), "genesys-MB/s")
}

func BenchmarkFig15Memcached(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig15Memcached(benchOptions())
	}
	cpu := parseMean(cellOf(t, 0, 1))
	gen := parseMean(cellOf(t, 2, 1))
	b.ReportMetric(cpu, "cpu-lat-us")
	b.ReportMetric(gen, "genesys-lat-us")
	if cpu > 0 {
		b.ReportMetric(100*(1-gen/cpu), "%lat-gain")
	}
}

func BenchmarkFig16BMPDisplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig16BMPDisplay(benchOptions())
	}
}

// --- ablation and infrastructure benchmarks (DESIGN.md §4) ---

// BenchmarkEngineDispatch measures raw simulation-event throughput: the
// cost floor under every experiment.
func BenchmarkEngineDispatch(b *testing.B) {
	e := sim.NewEngine(1)
	e.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSyscallRoundTrip measures one blocking work-group-granularity
// GPU system call end to end (virtual latency reported as a metric,
// wall time as the simulator's own cost).
func BenchmarkSyscallRoundTrip(b *testing.B) {
	m := platform.New(platform.DefaultConfig())
	defer m.Shutdown()
	pr := m.NewProcess("bench")
	f, err := m.VFS.Open("/tmp/bench", fs.O_CREAT|fs.O_WRONLY)
	if err != nil {
		b.Fatal(err)
	}
	fd, _ := pr.FDs.Install(f)
	var virtual sim.Time
	n := b.N
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "bench", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				start := w.P.Now()
				buf := make([]byte, 64)
				for i := 0; i < n; i++ {
					m.Genesys.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 64, 0},
						Buf:  buf,
					}, core.Options{Blocking: true, Wait: core.WaitPoll,
						Ordering: core.Relaxed, Kind: core.Consumer})
				}
				virtual = w.P.Now() - start
			},
		})
		k.Wait(p)
	})
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(virtual)/float64(b.N)/1000, "virtual-us/call")
}

// BenchmarkInvokeEachRoundTrip measures one blocking work-item-granularity
// invocation end to end: each of one wavefront's 64 lanes preads its own
// 64 bytes of a tmpfs file, and the wavefront polls until all are done
// (virtual latency per round reported as a metric).
func BenchmarkInvokeEachRoundTrip(b *testing.B) {
	m := platform.New(platform.DefaultConfig())
	defer m.Shutdown()
	pr := m.NewProcess("bench")
	if err := m.WriteFile("/tmp/bench", make([]byte, 64*64)); err != nil {
		b.Fatal(err)
	}
	f, err := m.VFS.Open("/tmp/bench", fs.O_RDONLY)
	if err != nil {
		b.Fatal(err)
	}
	fd, _ := pr.FDs.Install(f)
	var virtual sim.Time
	n := b.N
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "bench", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				start := w.P.Now()
				buf := make([]byte, 64*64)
				for i := 0; i < n; i++ {
					m.Genesys.InvokeEach(w, func(lane int) (syscalls.Request, bool) {
						return syscalls.Request{
							NR:   syscalls.SYS_pread64,
							Args: [6]uint64{uint64(fd), 64, uint64(64 * lane)},
							Buf:  buf[64*lane : 64*(lane+1)],
						}, true
					}, core.Options{Blocking: true, Wait: core.WaitPoll})
				}
				virtual = w.P.Now() - start
			},
		})
		k.Wait(p)
	})
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(virtual)/float64(b.N)/1000, "virtual-us/round")
}

// BenchmarkSlotLayoutAblation quantifies why the paper pads slots to one
// per cache line (Figure 5): the packed alternative false-shares on
// work-item-granularity invocation (DESIGN.md ⚗2).
func BenchmarkSlotLayoutAblation(b *testing.B) {
	for _, layout := range []struct {
		name   string
		packed bool
	}{{"padded-64B", false}, {"packed-4per-line", true}} {
		b.Run(layout.name, func(b *testing.B) {
			var virtual sim.Time
			for i := 0; i < b.N; i++ {
				cfg := platform.DefaultConfig()
				cfg.Genesys.PackedSlots = layout.packed
				m := platform.New(cfg)
				res, err := workloads.RunPread(m, workloads.PreadConfig{
					FileSize: 512 * 4096, ChunkPerWI: 4096, WGSize: 64,
					Granularity: workloads.GranWorkItem, Wait: core.WaitPoll,
				})
				if err != nil {
					b.Fatal(err)
				}
				virtual = res.ReadTime
				m.Shutdown()
			}
			b.ReportMetric(virtual.Milli(), "virtual-ms")
		})
	}
}

// BenchmarkCoalescingAblation compares batches formed with and without
// interrupt coalescing on a work-item pread flood (DESIGN.md ⚗3).
func BenchmarkCoalescingAblation(b *testing.B) {
	for _, mode := range []struct {
		name   string
		window sim.Time
		max    int
	}{{"off", 0, 1}, {"8way", 50 * sim.Microsecond, 8}} {
		b.Run(mode.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				m := platform.New(platform.DefaultConfig())
				m.Genesys.SetCoalescing(mode.window, mode.max)
				res, err := workloads.RunPread(m, workloads.PreadConfig{
					FileSize: 4096 * 512, ChunkPerWI: 512, WGSize: 64,
					Granularity: workloads.GranWorkItem, Wait: core.WaitHaltResume,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = res.LatencyPerByte()
				m.Shutdown()
			}
			b.ReportMetric(lat, "virtual-ns/B")
		})
	}
}
