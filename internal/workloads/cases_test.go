package workloads

import (
	"bytes"
	"testing"

	"genesys/internal/fault"
	"genesys/internal/platform"
	"genesys/internal/sim"
)

// --- miniAMR (§VIII-A, Figure 11) ---

func miniAMRMachine(t *testing.T, seed int64) *platform.Machine {
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	cfg.VM.PhysPages = MiniAMRPhysBytes / cfg.VM.PageSize
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	return m
}

func TestMiniAMRBaselineDiesToWatchdog(t *testing.T) {
	cfg := DefaultMiniAMRConfig()
	cfg.WatermarkBytes = 0 // no madvise
	res, err := RunMiniAMR(miniAMRMachine(t, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("baseline with dataset > physical memory survived; paper's baseline does not complete")
	}
	if res.FailedStep == 0 {
		t.Fatal("baseline failed before touching anything")
	}
}

func TestMiniAMRMadviseCompletes(t *testing.T) {
	for _, wm := range []int64{192 << 20, 248 << 20} { // scaled rss-3gb / rss-4gb
		cfg := DefaultMiniAMRConfig()
		cfg.WatermarkBytes = wm
		res, err := RunMiniAMR(miniAMRMachine(t, 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("watermark %d MiB: did not complete (step %d)", wm>>20, res.FailedStep)
		}
		if res.Madvises == 0 {
			t.Fatalf("watermark %d MiB: never called madvise", wm>>20)
		}
		// RSS must stay near the watermark, well below the dataset size.
		if res.PeakRSS > wm+(32<<20) {
			t.Fatalf("watermark %d MiB: peak RSS %d MiB", wm>>20, res.PeakRSS>>20)
		}
	}
}

func TestMiniAMRWatermarkTradeoff(t *testing.T) {
	// Figure 11: the lower watermark uses less memory but runs longer.
	run := func(wm int64) MiniAMRResult {
		cfg := DefaultMiniAMRConfig()
		cfg.WatermarkBytes = wm
		res, err := RunMiniAMR(miniAMRMachine(t, 2), cfg)
		if err != nil || !res.Completed {
			t.Fatalf("wm=%d: %v %+v", wm, err, res)
		}
		return res
	}
	low := run(192 << 20)
	high := run(248 << 20)
	if low.PeakRSS >= high.PeakRSS {
		t.Fatalf("low watermark RSS %d ≥ high watermark RSS %d", low.PeakRSS, high.PeakRSS)
	}
	if low.Runtime <= high.Runtime {
		t.Fatalf("low watermark (%v) not slower than high watermark (%v)", low.Runtime, high.Runtime)
	}
	if len(low.RSSTrace) == 0 {
		t.Fatal("no RSS trace recorded")
	}
}

// --- signal-search (§VIII-B, Figure 12) ---

func TestSignalSearchCorrectAndOverlapped(t *testing.T) {
	base := DefaultSignalSearchConfig()
	base.Blocks = 48

	cfgSig := base
	cfgSig.UseSignals = true
	sigRes, err := RunSignalSearch(newM(t, 1), cfgSig)
	if err != nil {
		t.Fatal(err)
	}
	cfgBase := base
	cfgBase.UseSignals = false
	baseRes, err := RunSignalSearch(newM(t, 1), cfgBase)
	if err != nil {
		t.Fatal(err)
	}

	// Both compute identical, correct digests.
	for i := 0; i < base.Blocks; i++ {
		want := ReferenceSha512(base.BlockBytes, i)
		if !bytes.Equal(sigRes.Digests[i], want) || !bytes.Equal(baseRes.Digests[i], want) {
			t.Fatalf("digest mismatch at block %d", i)
		}
	}
	if sigRes.Signals != int64(base.Blocks) {
		t.Fatalf("signals = %d, want %d", sigRes.Signals, base.Blocks)
	}
	// Overlap wins, by a modest margin (paper: ~14%).
	speedup := float64(baseRes.Runtime) / float64(sigRes.Runtime)
	if speedup < 1.05 {
		t.Fatalf("speedup = %.3f, want > 1.05 (paper ≈ 1.14)", speedup)
	}
	if speedup > 1.6 {
		t.Fatalf("speedup = %.3f implausibly high for this CPU/GPU phase ratio", speedup)
	}
}

// --- grep (§VIII-C, Figure 13a) ---

func TestGrepAllVariantsCorrect(t *testing.T) {
	var c *GrepCorpus
	for _, v := range []GrepVariant{GrepCPU, GrepOpenMP, GrepGPUWorkGroup,
		GrepGPUWorkItemPoll, GrepGPUWorkItemHalt} {
		cfg := DefaultGrepConfig(v)
		cfg.Files = 16
		cfg.FileBytes = 64 << 10
		if c == nil {
			c = NewGrepCorpus(cfg)
		}
		res, err := RunGrep(newM(t, 1), cfg, c)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !res.Correct() {
			t.Fatalf("%v: found %v, want %v", v, res.Found, res.Expected)
		}
	}
}

func TestGrepPerformanceOrdering(t *testing.T) {
	// Figure 13a: CPU > OpenMP > GPU variants, with WI-halt-resume the
	// best GPU flavor (paper: 3-4% over WG and WI-polling).
	c := NewGrepCorpus(DefaultGrepConfig(GrepCPU))
	run := func(v GrepVariant) sim.Time {
		res, err := RunGrep(newM(t, 9), DefaultGrepConfig(v), c)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct() {
			t.Fatalf("%v incorrect", v)
		}
		return res.Runtime
	}
	cpu := run(GrepCPU)
	omp := run(GrepOpenMP)
	wg := run(GrepGPUWorkGroup)
	wiPoll := run(GrepGPUWorkItemPoll)
	wiHalt := run(GrepGPUWorkItemHalt)
	if !(omp < cpu) {
		t.Fatalf("OpenMP (%v) not faster than CPU (%v)", omp, cpu)
	}
	if !(wg < omp && wiHalt < omp) {
		t.Fatalf("GENESYS (wg=%v, wiHalt=%v) not faster than OpenMP (%v)", wg, wiHalt, omp)
	}
	// Paper: WI-halt-resume beats WG and WI-polling by 3-4%. Our model
	// reproduces near-parity (the workload is CPU-syscall-bound, so the
	// GPU-side issue-slot drag of polling barely reaches the critical
	// path); assert halt-resume is at worst ~2% behind and never a big
	// regression.
	if float64(wiHalt) > 1.02*float64(wiPoll) {
		t.Fatalf("WI-halt-resume (%v) > 1.02 × WI-polling (%v)", wiHalt, wiPoll)
	}
	if float64(wiHalt) > 1.02*float64(wg) {
		t.Fatalf("WI-halt-resume (%v) > 1.02 × WG (%v)", wiHalt, wg)
	}
}

// --- wordcount (§VIII-C, Figures 13b and 14) ---

func TestWordcountAllVariantsCorrect(t *testing.T) {
	var c *WordcountCorpus
	for _, v := range []WordcountVariant{WordcountCPU, WordcountGPUNoSyscall, WordcountGENESYS} {
		cfg := DefaultWordcountConfig(v)
		cfg.Files = 32
		if c == nil {
			c = NewWordcountCorpus(cfg)
		}
		res, err := RunWordcount(newM(t, 1), cfg, c)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !res.Correct() {
			t.Fatalf("%v: counts mismatch", v)
		}
	}
}

// TestWordcountFailedReadsFailTheRun: when every GPU read fails with a
// surfaced errno, nothing is scanned, each failed read is counted and
// the run is not correct (the leader used to slice its buffer with the
// read's -1).
func TestWordcountFailedReadsFailTheRun(t *testing.T) {
	cfg := DefaultWordcountConfig(WordcountGENESYS)
	cfg.Files = 32
	pcfg := platform.DefaultConfig()
	plan, err := fault.PlanFor("transient-errno", 1)
	if err != nil {
		t.Fatal(err)
	}
	pcfg.Faults = &plan
	m := platform.New(pcfg)
	t.Cleanup(m.Shutdown)
	res, err := RunWordcount(m, cfg, NewWordcountCorpus(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedReads != cfg.Files || res.Correct() {
		t.Fatalf("failed reads = %d of %d files, correct = %v; want all failed, not correct",
			res.FailedReads, cfg.Files, res.Correct())
	}
	for w, n := range res.Counts {
		if n != 0 {
			t.Fatalf("word %d counted %d times with no successful read", w, n)
		}
	}
}

func TestWordcountGENESYSWins(t *testing.T) {
	// Figure 13b: GENESYS ≈6× over CPU; GPU-no-syscall worse than CPU.
	c := NewWordcountCorpus(DefaultWordcountConfig(WordcountCPU))
	run := func(v WordcountVariant) WordcountResult {
		res, err := RunWordcount(newM(t, 3), DefaultWordcountConfig(v), c)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct() {
			t.Fatalf("%v incorrect", v)
		}
		return res
	}
	cpu := run(WordcountCPU)
	nosc := run(WordcountGPUNoSyscall)
	gen := run(WordcountGENESYS)
	speedup := float64(cpu.Runtime) / float64(gen.Runtime)
	if speedup < 3.5 {
		t.Fatalf("GENESYS speedup over CPU = %.2f, want ≈6 (paper: ~6x)", speedup)
	}
	if speedup > 10 {
		t.Fatalf("GENESYS speedup over CPU = %.2f implausibly high", speedup)
	}
	if nosc.Runtime <= cpu.Runtime {
		t.Fatalf("GPU-no-syscall (%v) not worse than CPU (%v)", nosc.Runtime, cpu.Runtime)
	}
	// Figure 14: GENESYS sustains far more disk throughput than the CPU
	// version (paper: ~170 vs ~30 MB/s) at lower CPU utilization.
	if gen.MeanDiskMBs < 3*cpu.MeanDiskMBs {
		t.Fatalf("disk throughput: GENESYS %.0f MB/s vs CPU %.0f MB/s, want ≥3x",
			gen.MeanDiskMBs, cpu.MeanDiskMBs)
	}
	if cpu.MeanDiskMBs < 15 || cpu.MeanDiskMBs > 50 {
		t.Fatalf("CPU version disk = %.0f MB/s, want ≈30", cpu.MeanDiskMBs)
	}
	if gen.MeanDiskMBs < 120 || gen.MeanDiskMBs > 220 {
		t.Fatalf("GENESYS disk = %.0f MB/s, want ≈170", gen.MeanDiskMBs)
	}
	if gen.MeanCPUUtil >= cpu.MeanCPUUtil {
		t.Fatalf("CPU util: GENESYS %.0f%% vs CPU %.0f%%: offload freed no CPU",
			gen.MeanCPUUtil, cpu.MeanCPUUtil)
	}
}

// --- memcached (§VIII-D, Figure 15) ---

func TestMemcachedAllVariantsServe(t *testing.T) {
	for _, v := range []MemcachedVariant{MemcachedCPU, MemcachedGPUNoSyscall, MemcachedGENESYS} {
		cfg := DefaultMemcachedConfig(v)
		cfg.Requests = 400
		res, err := RunMemcached(newM(t, 1), cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Completed < cfg.Requests*95/100 {
			t.Fatalf("%v: completed %d/%d", v, res.Completed, cfg.Requests)
		}
		if res.Correct != res.Completed {
			t.Fatalf("%v: %d/%d replies carried wrong values", v,
				res.Completed-res.Correct, res.Completed)
		}
	}
}

func TestMemcachedGENESYSBeatsCPU(t *testing.T) {
	// Figure 15: with 1024 elements/bucket, GENESYS gives 30-40% better
	// latency and throughput than the CPU server; GPU-no-syscall lags
	// the CPU server.
	run := func(v MemcachedVariant) MemcachedResult {
		res, err := RunMemcached(newM(t, 5), DefaultMemcachedConfig(v))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cpu := run(MemcachedCPU)
	gen := run(MemcachedGENESYS)
	nosc := run(MemcachedGPUNoSyscall)
	if gen.MeanLatency >= cpu.MeanLatency {
		t.Fatalf("latency: GENESYS %v vs CPU %v", gen.MeanLatency, cpu.MeanLatency)
	}
	gain := 1 - float64(gen.MeanLatency)/float64(cpu.MeanLatency)
	if gain < 0.15 || gain > 0.70 {
		t.Fatalf("latency gain = %.0f%%, want ~30-40%%", gain*100)
	}
	if nosc.MeanLatency <= cpu.MeanLatency {
		t.Fatalf("GPU-no-syscall latency %v not worse than CPU %v",
			nosc.MeanLatency, cpu.MeanLatency)
	}
}

func TestMemcachedBucketSizeCrossover(t *testing.T) {
	// §VIII-D: "GPUs accelerate memcached by parallelizing lookups on
	// buckets with MORE elements" — with small buckets the CPU's scan is
	// cheap and GENESYS's syscall overheads dominate; with 1024-element
	// buckets the GPU's parallel scan wins.
	run := func(v MemcachedVariant, elems int) sim.Time {
		cfg := DefaultMemcachedConfig(v)
		cfg.ElemsPerBucket = elems
		cfg.Requests = 800
		res, err := RunMemcached(newM(t, 6), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed < cfg.Requests*9/10 {
			t.Fatalf("%v elems=%d: served %d/%d", v, elems, res.Completed, cfg.Requests)
		}
		return res.MeanLatency
	}
	if cpu, gen := run(MemcachedCPU, 64), run(MemcachedGENESYS, 64); gen <= cpu {
		t.Fatalf("small buckets: GENESYS (%v) should not beat CPU (%v)", gen, cpu)
	}
	if cpu, gen := run(MemcachedCPU, 1024), run(MemcachedGENESYS, 1024); gen >= cpu {
		t.Fatalf("large buckets: GENESYS (%v) should beat CPU (%v)", gen, cpu)
	}
}

// --- bmp-display (§VIII-E) ---

func TestBMPDisplay(t *testing.T) {
	res, err := RunBMPDisplay(newM(t, 1), DefaultBMPDisplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.InfoBefore.XRes != 1024 || res.InfoBefore.YRes != 768 {
		t.Fatalf("initial mode = %+v", res.InfoBefore)
	}
	if res.InfoAfter.XRes != 640 || res.InfoAfter.YRes != 480 || res.InfoAfter.BPP != 32 {
		t.Fatalf("configured mode = %+v", res.InfoAfter)
	}
	if !res.Validated {
		t.Fatal("framebuffer contents do not match the raster")
	}
	if res.Runtime <= 0 {
		t.Fatal("no runtime recorded")
	}
}
