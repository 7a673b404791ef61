package experiments

import (
	"fmt"
	"slices"

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
	variants := []variant{
		{"baseline (no madvise)", 0},
		{"rss-3gb (scaled: 192 MiB)", 192 << 20},
		{"rss-4gb (scaled: 248 MiB)", 248 << 20},
	}
	g := &grid{o: o}
	results := make([][]workloads.MiniAMRResult, len(variants))
	for i, v := range variants {
		results[i] = each(g, miniAMRTweak, func(m *platform.Machine, _ int64) (workloads.MiniAMRResult, error) {
			cfg := workloads.DefaultMiniAMRConfig()
			cfg.WatermarkBytes = v.watermark
			return workloads.RunMiniAMR(m, cfg)
		})
	}
	g.run()
	for i, v := range variants {
		var rt, peak, madvises sim.Summary
		for _, res := range results[i] {
			peak.Add(float64(res.PeakRSS) / (1 << 20))
			madvises.Add(float64(res.Madvises))
			if res.Completed {
				rt.Add(res.Runtime.Milli())
			} else {
				rt.Add(0)
			}
		}
		runtime, completes := ms(&rt), "yes"
		// Whether the variant completes is the last seed's verdict.
		if !results[i][len(results[i])-1].Completed {
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
	g := &grid{o: o, t: t}
	run := func(useSignals bool) []float64 {
		return each(g, nil, func(m *platform.Machine, _ int64) (float64, error) {
			cfg := workloads.DefaultSignalSearchConfig()
			cfg.UseSignals = useSignals
			res, err := workloads.RunSignalSearch(m, cfg)
			if err != nil {
				return 0, err
			}
			// Every block is digested exactly once: each has a digest,
			// and with signals each sent exactly one.
			missed := slices.ContainsFunc(res.Digests, func(d []byte) bool { return d == nil })
			ok := !missed && (!useSignals || res.Signals == int64(cfg.Blocks))
			return res.Runtime.Milli(), check(ok, "signal-search (signals %v): %d signals for %d blocks, one undigested: %v",
				useSignals, res.Signals, cfg.Blocks, missed)
		})
	}
	baseVals, sigVals := run(false), run(true)
	g.run()
	base, sig := summary(baseVals), summary(sigVals)
	t.AddRow("baseline (phase-separated)", ms(base))
	t.AddRow("GENESYS (signals overlap)", ms(sig))
	t.AddRow("speedup", ratio(base, sig))
	return t
}

// corpora builds one corpus per seed, the seeds side by side on the
// worker pool, before any data point runs: every variant at one seed
// reads the same read-only corpus, and each machine's files borrow its
// pages, so concurrent machines share it.
func corpora[C any](o Options, build func(seed int64) *C) []*C {
	out := make([]*C, o.runs())
	forEach(len(out), o.workers(), func(i int) { out[i] = build(o.BaseSeed + int64(i)) }, nil)
	return out
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
	grepConfig := func(v workloads.GrepVariant, seed int64) workloads.GrepConfig {
		cfg := workloads.DefaultGrepConfig(v)
		cfg.Seed = seed
		return cfg
	}
	corpus := corpora(o, func(seed int64) *workloads.GrepCorpus {
		return workloads.NewGrepCorpus(grepConfig(workloads.GrepCPU, seed))
	})
	variants := []workloads.GrepVariant{workloads.GrepCPU, workloads.GrepOpenMP,
		workloads.GrepGPUWorkGroup, workloads.GrepGPUWorkItemPoll, workloads.GrepGPUWorkItemHalt}
	g := &grid{o: o, t: t}
	runtimes := make([][]float64, len(variants))
	for i, v := range variants {
		runtimes[i] = each(g, nil, func(m *platform.Machine, seed int64) (float64, error) {
			res, err := workloads.RunGrep(m, grepConfig(v, seed), corpus[seed-o.BaseSeed])
			if err != nil {
				return 0, err
			}
			return res.Runtime.Milli(), check(res.Correct(), "grep %v: wrong answer", v)
		})
	}
	g.run()
	cpu := summary(runtimes[0])
	for i, v := range variants {
		s := summary(runtimes[i])
		t.AddRow(v.String(), ms(s), ratio(cpu, s))
	}
	return t
}

// wordcountCorpora builds the wordcount corpus of every seed.
func wordcountCorpora(o Options) []*workloads.WordcountCorpus {
	return corpora(o, func(seed int64) *workloads.WordcountCorpus {
		return workloads.NewWordcountCorpus(wordcountConfig(workloads.WordcountCPU, seed))
	})
}

func wordcountConfig(v workloads.WordcountVariant, seed int64) workloads.WordcountConfig {
	cfg := workloads.DefaultWordcountConfig(v)
	cfg.Seed = seed
	return cfg
}

// Fig13bWordcount regenerates the wordcount comparison.
func Fig13bWordcount(o Options) *Table {
	t := &Table{
		ID:     "fig13b",
		Title:  "wordcount from SSD: CPU-OpenMP vs GPU-no-syscall vs GENESYS (§VIII-C)",
		Note:   "Paper: GENESYS ~6x over the CPU version; the GPU version without system\ncalls is worse than the CPU version.",
		Header: []string{"variant", "runtime (ms)", "vs CPU"},
	}
	corpus := wordcountCorpora(o)
	variants := []workloads.WordcountVariant{workloads.WordcountCPU,
		workloads.WordcountGPUNoSyscall, workloads.WordcountGENESYS}
	g := &grid{o: o, t: t}
	runtimes := make([][]float64, len(variants))
	for i, v := range variants {
		runtimes[i] = each(g, nil, func(m *platform.Machine, seed int64) (float64, error) {
			res, err := workloads.RunWordcount(m, wordcountConfig(v, seed), corpus[seed-o.BaseSeed])
			if err != nil {
				return 0, err
			}
			return res.Runtime.Milli(), check(res.Correct(), "wordcount %v: wrong counts", v)
		})
	}
	g.run()
	cpu := summary(runtimes[0])
	for i, v := range variants {
		s := summary(runtimes[i])
		t.AddRow(v.String(), ms(s), ratio(cpu, s))
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
	corpus := wordcountCorpora(o)
	variants := []workloads.WordcountVariant{workloads.WordcountCPU, workloads.WordcountGENESYS}
	g := &grid{o: o, t: t}
	results := make([][]workloads.WordcountResult, len(variants))
	for i, v := range variants {
		results[i] = each(g, nil, func(m *platform.Machine, seed int64) (workloads.WordcountResult, error) {
			res, err := workloads.RunWordcount(m, wordcountConfig(v, seed), corpus[seed-o.BaseSeed])
			if err != nil {
				return res, err
			}
			return res, check(res.Correct(), "fig14 %v: wrong counts", v)
		})
	}
	g.run()
	for i, v := range variants {
		var mean, peak, util sim.Summary
		for _, res := range results[i] {
			mean.Add(res.MeanDiskMBs)
			peak.Add(res.PeakDiskMBs)
			util.Add(res.MeanCPUUtil)
		}
		t.AddRow(v.String(), f0(&mean), f0(&peak), f0(&util))
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
	variants := []workloads.MemcachedVariant{workloads.MemcachedCPU,
		workloads.MemcachedGPUNoSyscall, workloads.MemcachedGENESYS}
	g := &grid{o: o, t: t}
	// serve runs one configuration and checks every value it served.
	serve := func(m *platform.Machine, cfg workloads.MemcachedConfig) (workloads.MemcachedResult, error) {
		res, err := workloads.RunMemcached(m, cfg)
		if err != nil {
			return res, err
		}
		return res, check(res.Correct == res.Completed, "memcached %v, %d elems/bucket: wrong values",
			cfg.Variant, cfg.ElemsPerBucket)
	}
	results := make([][]workloads.MemcachedResult, len(variants))
	for i, v := range variants {
		results[i] = each(g, nil, func(m *platform.Machine, _ int64) (workloads.MemcachedResult, error) {
			return serve(m, workloads.DefaultMemcachedConfig(v))
		})
	}
	// Bucket-size sweep: the crossover behind "GPUs accelerate memcached
	// by parallelizing lookups on buckets with more elements".
	bucketSizes := []int{64, 256, 1024}
	lat := func(v workloads.MemcachedVariant, elems int) []float64 {
		cfg := workloads.DefaultMemcachedConfig(v)
		cfg.ElemsPerBucket = elems
		cfg.Requests = 1000
		return each(g, nil, func(m *platform.Machine, _ int64) (float64, error) {
			res, err := serve(m, cfg)
			return res.MeanLatency.Micro(), err
		})
	}
	cpuLats := make([][]float64, len(bucketSizes))
	genLats := make([][]float64, len(bucketSizes))
	for i, elems := range bucketSizes {
		cpuLats[i] = lat(workloads.MemcachedCPU, elems)
		genLats[i] = lat(workloads.MemcachedGENESYS, elems)
	}
	g.run()
	for i, v := range variants {
		var lat, p99, tput, served sim.Summary
		for _, res := range results[i] {
			p99.Add(res.P99Latency.Micro())
			tput.Add(res.ThroughputRPS / 1000)
			served.Add(float64(res.Completed))
			lat.Add(res.MeanLatency.Micro())
		}
		t.AddRow(v.String(), f2(&lat), f2(&p99), f2(&tput), f0(&served))
	}
	t.AddRow("", "", "", "", "")
	t.AddRow("-- bucket sweep --", "CPU mean (us)", "GENESYS mean (us)", "winner", "")
	for i, elems := range bucketSizes {
		cpuLat, genLat := summary(cpuLats[i]), summary(genLats[i])
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
	var res workloads.BMPDisplayResult
	g := &grid{o: o, t: t}
	g.add(o.BaseSeed, nil, func(m *platform.Machine) error {
		var err error
		res, err = workloads.RunBMPDisplay(m, workloads.DefaultBMPDisplayConfig())
		if err != nil {
			return err
		}
		return check(res.Validated, "bmp-display: image not validated")
	})
	g.run()
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
