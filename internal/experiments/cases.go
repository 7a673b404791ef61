package experiments

import (
	"fmt"

	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/workloads"
)

func miniAMRTweak(cfg *platform.Config) {
	cfg.VM.PhysPages = workloads.MiniAMRPhysBytes / cfg.VM.PageSize
}

// Fig11MiniAMR regenerates the memory-management case study: miniAMR
// with a dataset just over the physical limit, without madvise (baseline)
// and with two RSS watermarks.
func Fig11MiniAMR(o Options) *Table {
	t := &Table{
		ID:    "fig11",
		Title: "miniAMR memory footprint with getrusage + madvise (§VIII-A)",
		Note: "Paper: without madvise, swapping triggers GPU timeouts and the run never\n" +
			"completes; rss watermarks trade memory for runtime (rss-3gb < rss-4gb in\n" +
			"memory, > in runtime). Scaled 16x: 256 MiB plays the role of the 4 GB cap.",
		Header: []string{"variant", "completes", "runtime (ms)", "peak RSS (MiB)", "madvise calls"},
	}
	type variant struct {
		name      string
		watermark int64
	}
	for _, v := range []variant{
		{"baseline (no madvise)", 0},
		{"rss-3gb (scaled: 192 MiB)", 192 << 20},
		{"rss-4gb (scaled: 248 MiB)", 248 << 20},
	} {
		v := v
		var completed bool
		var peak, madvises sim.Summary
		rt := sweep(o, func(seed int64) float64 {
			m := newMachine(o, seed, miniAMRTweak)
			defer m.Shutdown()
			cfg := workloads.DefaultMiniAMRConfig()
			cfg.WatermarkBytes = v.watermark
			res, err := workloads.RunMiniAMR(m, cfg)
			if err != nil {
				panic(err)
			}
			completed = res.Completed
			peak.Add(float64(res.PeakRSS) / (1 << 20))
			madvises.Add(float64(res.Madvises))
			if !res.Completed {
				return 0
			}
			return res.Runtime.Milli()
		})
		runtime := ms(rt)
		completes := "yes"
		if !completed {
			completes = "NO (GPU watchdog)"
			runtime = "DNF"
		}
		t.AddRow(v.name, completes, runtime, f0(&peak), f0(&madvises))
	}
	return t
}

// Fig12SignalSearch regenerates the signals case study: GPU parallel
// lookup with per-block rt_sigqueueinfo overlapping CPU sha512 work.
func Fig12SignalSearch(o Options) *Table {
	t := &Table{
		ID:     "fig12",
		Title:  "CPU-GPU map-reduce with rt_sigqueueinfo (signal-search, §VIII-B)",
		Note:   "Paper: work-group-granularity non-blocking signals give ~14% speedup.",
		Header: []string{"variant", "runtime (ms)"},
	}
	run := func(useSignals bool) *sim.Summary {
		return sweep(o, func(seed int64) float64 {
			m := newMachine(o, seed, nil)
			defer m.Shutdown()
			cfg := workloads.DefaultSignalSearchConfig()
			cfg.UseSignals = useSignals
			res, err := workloads.RunSignalSearch(m, cfg)
			if err != nil {
				panic(err)
			}
			return res.Runtime.Milli()
		})
	}
	base := run(false)
	sig := run(true)
	t.AddRow("baseline (phase-separated)", ms(base))
	t.AddRow("GENESYS (signals overlap)", ms(sig))
	t.AddRow("speedup", ratio(base, sig))
	return t
}

// corpusFor returns the corpus for seed, building it from cfg the first
// time a variant needs it: every variant at one seed reads the same
// read-only corpus, and each machine's files borrow its pages.
func corpusFor[Cfg any, C any](corpora map[int64]*C, seed int64, cfg Cfg, build func(Cfg) *C) *C {
	c := corpora[seed]
	if c == nil {
		c = build(cfg)
		corpora[seed] = c
	}
	return c
}

// Fig13aGrep regenerates the grep case study across all five variants.
func Fig13aGrep(o Options) *Table {
	t := &Table{
		ID:    "fig13a",
		Title: "grep -F -l: CPU, OpenMP, and GENESYS invocation flavors (§VIII-C)",
		Note: "Paper: GENESYS beats OpenMP; WI-halt-resume edges out WG and WI-polling by\n" +
			"3-4% (here: near-parity; see EXPERIMENTS.md).",
		Header: []string{"variant", "runtime (ms)", "vs CPU"},
	}
	corpora := map[int64]*workloads.GrepCorpus{}
	var cpuSummary *sim.Summary
	for _, v := range []workloads.GrepVariant{workloads.GrepCPU, workloads.GrepOpenMP,
		workloads.GrepGPUWorkGroup, workloads.GrepGPUWorkItemPoll, workloads.GrepGPUWorkItemHalt} {
		v := v
		s := sweep(o, func(seed int64) float64 {
			m := newMachine(o, seed, nil)
			defer m.Shutdown()
			cfg := workloads.DefaultGrepConfig(v)
			cfg.Seed = seed
			res, err := workloads.RunGrep(m, cfg, corpusFor(corpora, seed, cfg, workloads.NewGrepCorpus))
			if err != nil {
				panic(err)
			}
			if !res.Correct() {
				panic(fmt.Sprintf("grep %v: wrong answer", v))
			}
			return res.Runtime.Milli()
		})
		if v == workloads.GrepCPU {
			cpuSummary = s
		}
		t.AddRow(v.String(), ms(s), ratio(cpuSummary, s))
	}
	return t
}

// Fig13bWordcount regenerates the wordcount comparison.
func Fig13bWordcount(o Options) *Table {
	t := &Table{
		ID:     "fig13b",
		Title:  "wordcount from SSD: CPU-OpenMP vs GPU-no-syscall vs GENESYS (§VIII-C)",
		Note:   "Paper: GENESYS ~6x over the CPU version; the GPU version without system\ncalls is worse than the CPU version.",
		Header: []string{"variant", "runtime (ms)", "vs CPU"},
	}
	corpora := map[int64]*workloads.WordcountCorpus{}
	var cpuSummary *sim.Summary
	for _, v := range []workloads.WordcountVariant{workloads.WordcountCPU,
		workloads.WordcountGPUNoSyscall, workloads.WordcountGENESYS} {
		v := v
		s := sweep(o, func(seed int64) float64 {
			m := newMachine(o, seed, nil)
			defer m.Shutdown()
			cfg := workloads.DefaultWordcountConfig(v)
			cfg.Seed = seed
			res, err := workloads.RunWordcount(m, cfg, corpusFor(corpora, seed, cfg, workloads.NewWordcountCorpus))
			if err != nil {
				panic(err)
			}
			if !res.Correct() {
				panic(fmt.Sprintf("wordcount %v: wrong counts", v))
			}
			return res.Runtime.Milli()
		})
		if v == workloads.WordcountCPU {
			cpuSummary = s
		}
		t.AddRow(v.String(), ms(s), ratio(cpuSummary, s))
	}
	return t
}

// Fig14WordcountTraces regenerates the I/O and CPU utilization traces of
// the wordcount runs.
func Fig14WordcountTraces(o Options) *Table {
	t := &Table{
		ID:    "fig14",
		Title: "wordcount I/O throughput and CPU utilization (§VIII-C)",
		Note: "Paper: GENESYS drives the SSD to ~170 MB/s where the CPU version manages\n" +
			"~30 MB/s, while using less CPU (the GPU does the searching).",
		Header: []string{"variant", "mean disk (MB/s)", "peak disk (MB/s)", "mean CPU util (%)"},
	}
	corpora := map[int64]*workloads.WordcountCorpus{}
	for _, v := range []workloads.WordcountVariant{workloads.WordcountCPU, workloads.WordcountGENESYS} {
		v := v
		var peak, util sim.Summary
		mean := sweep(o, func(seed int64) float64 {
			m := newMachine(o, seed, nil)
			defer m.Shutdown()
			cfg := workloads.DefaultWordcountConfig(v)
			cfg.Seed = seed
			res, err := workloads.RunWordcount(m, cfg, corpusFor(corpora, seed, cfg, workloads.NewWordcountCorpus))
			if err != nil || !res.Correct() {
				panic(fmt.Sprint("fig14: ", err))
			}
			peak.Add(res.PeakDiskMBs)
			util.Add(res.MeanCPUUtil)
			return res.MeanDiskMBs
		})
		t.AddRow(v.String(), f0(mean), f0(&peak), f0(&util))
	}
	return t
}

// Fig15Memcached regenerates the UDP memcached comparison.
func Fig15Memcached(o Options) *Table {
	t := &Table{
		ID:     "fig15",
		Title:  "memcached GET latency and throughput (1024 elems/bucket, 1 KiB values, §VIII-D)",
		Note:   "Paper: GENESYS achieves 30-40% better latency and throughput than both the\nCPU version and the GPU version without direct system calls.",
		Header: []string{"variant", "mean latency (us)", "p99 latency (us)", "throughput (K req/s)", "served"},
	}
	for _, v := range []workloads.MemcachedVariant{workloads.MemcachedCPU,
		workloads.MemcachedGPUNoSyscall, workloads.MemcachedGENESYS} {
		v := v
		var p99, tput, served sim.Summary
		lat := sweep(o, func(seed int64) float64 {
			m := newMachine(o, seed, nil)
			defer m.Shutdown()
			res, err := workloads.RunMemcached(m, workloads.DefaultMemcachedConfig(v))
			if err != nil {
				panic(err)
			}
			if res.Correct != res.Completed {
				panic(fmt.Sprintf("memcached %v: wrong values", v))
			}
			p99.Add(res.P99Latency.Micro())
			tput.Add(res.ThroughputRPS / 1000)
			served.Add(float64(res.Completed))
			return res.MeanLatency.Micro()
		})
		t.AddRow(v.String(), f2(lat), f2(&p99), f2(&tput), f0(&served))
	}
	// Bucket-size sweep: the crossover behind "GPUs accelerate memcached
	// by parallelizing lookups on buckets with more elements".
	t.AddRow("", "", "", "", "")
	t.AddRow("-- bucket sweep --", "CPU mean (us)", "GENESYS mean (us)", "winner", "")
	for _, elems := range []int{64, 256, 1024} {
		elems := elems
		lat := func(v workloads.MemcachedVariant) *sim.Summary {
			return sweep(o, func(seed int64) float64 {
				m := newMachine(o, seed, nil)
				defer m.Shutdown()
				cfg := workloads.DefaultMemcachedConfig(v)
				cfg.ElemsPerBucket = elems
				cfg.Requests = 1000
				res, err := workloads.RunMemcached(m, cfg)
				if err != nil {
					panic(err)
				}
				return res.MeanLatency.Micro()
			})
		}
		cpuLat := lat(workloads.MemcachedCPU)
		genLat := lat(workloads.MemcachedGENESYS)
		winner := "CPU"
		if genLat.Mean() < cpuLat.Mean() {
			winner = "GENESYS"
		}
		t.AddRow(fmt.Sprintf("%d elems/bucket", elems), f2(cpuLat), f2(genLat), winner, "")
	}
	return t
}

// Fig16BMPDisplay regenerates the device-control case study.
func Fig16BMPDisplay(o Options) *Table {
	t := &Table{
		ID:     "fig16",
		Title:  "bmp-display: GPU ioctl + mmap on /dev/fb0 (§VIII-E)",
		Note:   "The GPU queries and sets framebuffer properties over ioctl, mmaps the\nframebuffer, and rasterizes an image into it (paper Figure 16).",
		Header: []string{"metric", "value"},
	}
	m := newMachine(o, o.BaseSeed, nil)
	defer m.Shutdown()
	res, err := workloads.RunBMPDisplay(m, workloads.DefaultBMPDisplayConfig())
	if err != nil {
		panic(err)
	}
	t.AddRow("initial mode", fmt.Sprintf("%dx%d@%d", res.InfoBefore.XRes, res.InfoBefore.YRes, res.InfoBefore.BPP))
	t.AddRow("configured mode", fmt.Sprintf("%dx%d@%d", res.InfoAfter.XRes, res.InfoAfter.YRes, res.InfoAfter.BPP))
	t.AddRow("pixels written", fmt.Sprint(res.PixelsWritten))
	t.AddRow("image validated", fmt.Sprint(res.Validated))
	t.AddRow("runtime", res.Runtime.String())
	return t
}

// ByID returns the experiment driver with the given ID.
func ByID(id string) (func(Options) *Table, bool) {
	m := map[string]func(Options) *Table{
		"table2":    func(Options) *Table { return Table2Classification() },
		"table3":    func(o Options) *Table { return Table3Platform(o) },
		"table4":    Table4AtomicCosts,
		"fig7":      Fig7Granularity,
		"fig8":      Fig8BlockingOrdering,
		"fig9":      Fig9PollingContention,
		"fig10":     Fig10Coalescing,
		"fig11":     Fig11MiniAMR,
		"fig12":     Fig12SignalSearch,
		"fig13a":    Fig13aGrep,
		"fig13b":    Fig13bWordcount,
		"fig14":     Fig14WordcountTraces,
		"fig15":     Fig15Memcached,
		"fig16":     Fig16BMPDisplay,
		"breakdown": Breakdown,
		"ablation":  Ablation,
		"chaos":     Chaos,
		"fleet":     Fleet,
	}
	fn, ok := m[id]
	return fn, ok
}

// IDs lists the experiment IDs in paper order.
func IDs() []string {
	return []string{"table2", "table3", "table4", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13a", "fig13b", "fig14", "fig15",
		"fig16", "breakdown", "ablation", "chaos", "fleet"}
}
