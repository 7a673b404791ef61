package workloads

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"genesys/internal/core"
	"genesys/internal/fault"
	"genesys/internal/platform"
	"genesys/internal/sim"
)

func newM(t *testing.T, seed int64) *platform.Machine {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	return m
}

func TestPreadAllGranularitiesValidate(t *testing.T) {
	for _, g := range []Granularity{GranWorkItem, GranWorkGroup, GranKernel} {
		res, err := RunPread(newM(t, 1), PreadConfig{
			FileSize:    4 << 20,
			ChunkPerWI:  16 << 10,
			WGSize:      64,
			Granularity: g,
			Wait:        core.WaitPoll,
		})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if !res.Validated {
			t.Fatalf("%v: data validation failed", g)
		}
		if res.ReadTime <= 0 || res.Bytes != 4<<20 {
			t.Fatalf("%v: res = %+v", g, res)
		}
	}
}

// TestPreadAllocDoesNotScaleWithFile: at work-item and work-group
// granularity, reading a file twice as large allocates well under the
// extra file bytes, because a destination is reused once its read has
// been checked. The GPU holds four wavefronts, so most waves start after
// others have finished and returned their destinations.
func TestPreadAllocDoesNotScaleWithFile(t *testing.T) {
	const size = 8 << 20
	alloc := func(g Granularity, size int64) int64 {
		cfg := platform.DefaultConfig()
		cfg.GPU.CUs, cfg.GPU.WavefrontsPerCU = 1, 4
		m := platform.New(cfg)
		defer m.Shutdown()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := RunPread(m, PreadConfig{
			FileSize: size, ChunkPerWI: 4 << 10, WGSize: 64,
			Granularity: g, Wait: core.WaitPoll,
		})
		runtime.ReadMemStats(&after)
		if err != nil || !res.Validated {
			t.Fatalf("%v, %d MiB: err %v, validated %v", g, size>>20, err, res.Validated)
		}
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, g := range []Granularity{GranWorkItem, GranWorkGroup} {
		small, large := alloc(g, size), alloc(g, 2*size)
		if grow := large - small; grow > size/4 {
			t.Errorf("%v: %d MiB file allocated %d KiB, %d MiB file %d KiB; want growth under %d KiB",
				g, size>>20, small>>10, 2*size>>20, large>>10, size/4>>10)
		}
	}
}

// TestPreadValidationCatchesBadReads starts from one correct read and
// breaks it one way at a time. A first-and-last-byte check passes both
// the wrong middle byte and, with no return value checked, the stale
// destination; readValid catches every case.
func TestPreadValidationCatchesBadReads(t *testing.T) {
	const n, off = 4 << 10, 3<<12 + 100
	want := newPatternWindow(preadSeed)
	pattern := func(at int64) []byte {
		b := make([]byte, at+n)
		fillPattern(b, preadSeed)
		return b[at:]
	}
	firstLast := func(b []byte) bool {
		return b[0] == patternByte(off, preadSeed) && b[n-1] == patternByte(off+n-1, preadSeed)
	}
	if !want.readValid(n, pattern(off), off) {
		t.Fatal("a correct read fails validation")
	}
	wrongByte := pattern(off)
	wrongByte[n/2]++
	stale := pattern(off + 256) // an earlier read's bytes, one period on
	for _, c := range []struct {
		name string
		ret  int64
		dst  []byte
	}{
		{"short read", n - 1, pattern(off)},
		{"failed read", -1, make([]byte, n)},
		{"unwritten destination", n, make([]byte, n)},
		{"wrong middle byte", n, wrongByte},
		{"failed read into a stale destination", -1, stale},
	} {
		if want.readValid(c.ret, c.dst, off) {
			t.Errorf("%s passes validation", c.name)
		}
	}
	if !firstLast(wrongByte) || !firstLast(stale) {
		t.Error("the first-and-last-byte check should miss these; the test no longer shows why")
	}
	var bufs readBufs
	b := bufs.get(n)
	copy(b, stale)
	bufs.put(b)
	if r := bufs.get(n); &r[0] != &b[0] || !bytes.Equal(r, make([]byte, n)) {
		t.Error("a reused destination is not the returned one, zeroed")
	}
}

// TestPreadFailedCallsFailValidation: when every system call fails with
// an injected errno, no granularity validates, and RunPread still
// returns without an error.
func TestPreadFailedCallsFailValidation(t *testing.T) {
	plan, err := fault.PlanFor("transient-errno", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Granularity{GranWorkItem, GranWorkGroup, GranKernel} {
		cfg := platform.DefaultConfig()
		cfg.Faults = &plan
		m := platform.New(cfg)
		res, err := RunPread(m, PreadConfig{
			FileSize: 1 << 20, ChunkPerWI: 4 << 10, WGSize: 64,
			Granularity: g, Wait: core.WaitPoll,
		})
		m.Shutdown()
		if err != nil || res.Validated {
			t.Errorf("%v: err %v, validated %v; want nil, false", g, err, res.Validated)
		}
	}
}

func TestPreadSyscallCountsByGranularity(t *testing.T) {
	count := func(g Granularity) int64 {
		res, err := RunPread(newM(t, 1), PreadConfig{
			FileSize: 4 << 20, ChunkPerWI: 16 << 10, WGSize: 64,
			Granularity: g, Wait: core.WaitPoll,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Syscalls
	}
	// 256 work-items in WGs of 64.
	if n := count(GranWorkItem); n != 256 {
		t.Fatalf("work-item syscalls = %d, want 256", n)
	}
	if n := count(GranWorkGroup); n != 4 {
		t.Fatalf("work-group syscalls = %d, want 4", n)
	}
	if n := count(GranKernel); n != 1 {
		t.Fatalf("kernel syscalls = %d, want 1", n)
	}
}

func TestPreadGranularityOrdering(t *testing.T) {
	// The Figure 7 headline: at a substantial file size, work-group
	// invocation beats both the work-item flood and the serial
	// kernel-granularity call.
	run := func(g Granularity) sim.Time {
		res, err := RunPread(newM(t, 2), PreadConfig{
			FileSize: 64 << 20, ChunkPerWI: 64 << 10, WGSize: 64,
			Granularity: g, Wait: core.WaitPoll,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ReadTime
	}
	wi, wg, kern := run(GranWorkItem), run(GranWorkGroup), run(GranKernel)
	if !(wg < wi && wg < kern) {
		t.Fatalf("granularity ordering violated: wi=%v wg=%v kernel=%v", wi, wg, kern)
	}
}

func TestPreadLargerWGSizesHelp(t *testing.T) {
	// Figure 7 (right): larger work-groups mean fewer, bigger system
	// calls; when per-call overheads matter (small per-work-item chunks)
	// that wins.
	run := func(wgSize int) sim.Time {
		res, err := RunPread(newM(t, 2), PreadConfig{
			FileSize: 16 << 20, ChunkPerWI: 1 << 10, WGSize: wgSize,
			Granularity: GranWorkGroup, Wait: core.WaitPoll,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ReadTime
	}
	if t64, t1024 := run(64), run(1024); t1024 >= t64 {
		t.Fatalf("wg64=%v wg1024=%v: larger WGs did not help", t64, t1024)
	}
}

func TestPreadConfigValidation(t *testing.T) {
	if _, err := RunPread(newM(t, 1), PreadConfig{FileSize: 1000, ChunkPerWI: 300}); err == nil {
		t.Fatal("indivisible file size accepted")
	}
	if _, err := RunPread(newM(t, 1), PreadConfig{FileSize: 1 << 20, ChunkPerWI: 16 << 10, WGSize: 1000}); err == nil {
		t.Fatal("indivisible work-item count accepted")
	}
}

func TestPermuteValidatesOutput(t *testing.T) {
	res, err := RunPermute(newM(t, 1), PermuteConfig{
		Blocks: 8, Iterations: 3,
		Blocking: true, Ordering: core.Strong, Wait: core.WaitPoll,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Validated {
		t.Fatal("permuted output wrong")
	}
	if res.PerPermutation <= 0 {
		t.Fatalf("res = %+v", res)
	}
}

// TestPermuteRejectsBlockSizeMultipleOf257: one round is no permutation
// of such a block, so the composed rounds would not equal single ones.
func TestPermuteRejectsBlockSizeMultipleOf257(t *testing.T) {
	if _, err := RunPermute(newM(t, 1), PermuteConfig{Blocks: 1, BlockSize: 2 * 257, Iterations: 2}); err == nil {
		t.Fatal("block size 514 accepted")
	}
}

func TestPermuteBlockingOrderingSpectrum(t *testing.T) {
	// Figure 8 at low iteration count: strong-block is worst;
	// weak-non-block is best.
	run := func(blocking bool, ord core.Ordering) sim.Time {
		res, err := RunPermute(newM(t, 3), PermuteConfig{
			Blocks: 64, Iterations: 2,
			Blocking: blocking, Ordering: ord, Wait: core.WaitPoll,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerPermutation
	}
	strongBlock := run(true, core.Strong)
	strongNonBlock := run(false, core.Strong)
	weakNonBlock := run(false, core.Relaxed)
	if !(strongBlock > strongNonBlock) {
		t.Fatalf("strong-block (%v) not worse than strong-non-block (%v)",
			strongBlock, strongNonBlock)
	}
	if !(strongBlock > weakNonBlock) {
		t.Fatalf("strong-block (%v) not worse than weak-non-block (%v)",
			strongBlock, weakNonBlock)
	}
}

func TestPermuteConvergesAtHighIterations(t *testing.T) {
	// At high iteration counts compute dominates and the variants
	// converge (Figure 8's right side).
	run := func(blocking bool, ord core.Ordering, iters int) sim.Time {
		res, err := RunPermute(newM(t, 3), PermuteConfig{
			Blocks: 64, Iterations: iters,
			Blocking: blocking, Ordering: ord, Wait: core.WaitPoll,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerPermutation
	}
	sb := run(true, core.Strong, 64)
	wnb := run(false, core.Relaxed, 64)
	ratio := float64(sb) / float64(wnb)
	if ratio > 1.35 {
		t.Fatalf("at 64 iterations strong-block/weak-non-block = %.2f, want ≈1", ratio)
	}
}

func TestPollProbeKnee(t *testing.T) {
	// Figure 9: CPU access throughput is flat while the polled working
	// set fits the GPU L2 (4096 lines) and falls beyond it.
	run := func(lines int) PollProbeResult {
		res, err := RunPollProbe(newM(t, 4), PollProbeConfig{
			PolledLines: lines, PollerWaves: 128, Duration: sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(1024)
	atCap := run(4096)
	big := run(16384)
	if small.GPUL2MissRate != 0 || atCap.GPUL2MissRate != 0 {
		t.Fatalf("misses within capacity: %v %v", small.GPUL2MissRate, atCap.GPUL2MissRate)
	}
	if big.GPUL2MissRate < 0.5 {
		t.Fatalf("miss rate at 4x capacity = %.2f", big.GPUL2MissRate)
	}
	if big.CPUAccessesPerSec > 0.8*atCap.CPUAccessesPerSec {
		t.Fatalf("CPU throughput did not drop past the knee: %.0f vs %.0f",
			big.CPUAccessesPerSec, atCap.CPUAccessesPerSec)
	}
	if small.CPUAccessesPerSec < 0.9*atCap.CPUAccessesPerSec {
		t.Fatalf("CPU throughput not flat below the knee: %.0f vs %.0f",
			small.CPUAccessesPerSec, atCap.CPUAccessesPerSec)
	}
}

func TestPreadCoalescingHelpsSmallReads(t *testing.T) {
	// Figure 10: coalescing up to 8 interrupts helps most for small
	// per-call reads. The workload must offer more interrupt bundles than
	// CPU workers, or coalescing's serialization outweighs its overhead
	// savings (the paper's latency-vs-throughput caveat, §V-B).
	run := func(chunk int64, window sim.Time, max int) float64 {
		m := newM(t, 5)
		m.Genesys.SetCoalescing(window, max)
		res, err := RunPread(m, PreadConfig{
			FileSize: 4096 * chunk, ChunkPerWI: chunk, WGSize: 64,
			Granularity: GranWorkItem, Wait: core.WaitHaltResume,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.LatencyPerByte()
	}
	smallOff := run(512, 0, 1)
	smallOn := run(512, 50*sim.Microsecond, 8)
	if smallOn >= smallOff {
		t.Fatalf("coalescing did not help small reads: %.2f vs %.2f ns/B", smallOn, smallOff)
	}
	bigOff := run(64<<10, 0, 1)
	bigOn := run(64<<10, 50*sim.Microsecond, 8)
	gainSmall := smallOff / smallOn
	gainBig := bigOff / bigOn
	if gainBig > gainSmall {
		t.Fatalf("coalescing gain not concentrated at small reads: small=%.2fx big=%.2fx",
			gainSmall, gainBig)
	}
}

func TestTableIInventory(t *testing.T) {
	apps := TableI()
	if len(apps) != 6 {
		t.Fatalf("Table I entries = %d, want 6", len(apps))
	}
	prev := 0
	for _, a := range apps {
		if a.Name == "" || a.Syscalls == "" || a.Where == "" {
			t.Fatalf("incomplete entry: %+v", a)
		}
		if a.Previously {
			prev++
		}
	}
	if prev != 2 {
		t.Fatalf("previously-realizable = %d, want 2 (wordcount, memcached)", prev)
	}
	out := RenderTableI()
	for _, want := range []string{"miniamr", "signal-search", "grep", "bmp-display",
		"memcached", "Previously unrealizable:", "rt_sigqueueinfo"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
