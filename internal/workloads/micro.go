// Package workloads implements every application and microbenchmark of
// the paper's evaluation (§VII and §VIII), plus the CPU and GPU baselines
// they are compared against. Each workload computes real results
// (verified by tests) while its timing flows through the simulated
// machine.
package workloads

import (
	"bytes"
	"fmt"
	"math/rand"

	"genesys/internal/core"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// Granularity selects the system call invocation granularity (§V-A).
type Granularity int

const (
	GranWorkItem Granularity = iota
	GranWorkGroup
	GranKernel
)

func (g Granularity) String() string {
	switch g {
	case GranWorkItem:
		return "work-item"
	case GranWorkGroup:
		return "work-group"
	case GranKernel:
		return "kernel"
	}
	return "unknown"
}

// fillPattern writes a deterministic byte pattern used for read
// validation: b[i] = patternByte(i, seed). The pattern repeats every 256
// bytes, so one period is computed and the rest is doubling copies.
func fillPattern(b []byte, seed byte) {
	for i := range b[:min(len(b), 256)] {
		b[i] = patternByte(int64(i), seed)
	}
	for n := 256; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

func patternByte(i int64, seed byte) byte { return byte(i)*31 + seed }

// preadSeed is the pattern seed of RunPread's input file.
const preadSeed = 7

// stagePattern creates path as a size-byte file holding fillPattern with
// seed, without building the whole file in a host buffer: it creates the
// file at its full size, then shares (fs.Share) one 64 KiB pattern chunk
// at every chunk offset, so every page of the file borrows the chunk.
// The pattern's 256-byte period divides 64 KiB, so the same chunk is the
// pattern at every such offset.
func stagePattern(m *platform.Machine, path string, size int64, seed byte) error {
	f, err := m.CreateFile(path, size)
	if err != nil {
		return err
	}
	chunk := make([]byte, min(size, 64<<10))
	fillPattern(chunk, seed)
	for off := int64(0); off < size; off += int64(len(chunk)) {
		if err := fs.Share(f.Node, off, chunk[:min(int64(len(chunk)), size-off)]); err != nil {
			return err
		}
	}
	return nil
}

// patternWindow is fillPattern over 16 KiB plus one 256-byte period.
// The pattern repeats every 256 bytes, so up to 16 KiB of it from any
// file offset off is the window from off mod 256 on.
type patternWindow []byte

func newPatternWindow(seed byte) patternWindow {
	w := make(patternWindow, 16<<10+256)
	fillPattern(w, seed)
	return w
}

// holds reports whether every byte of buf is the pattern from file
// offset off on, comparing one window-sized piece at a time.
func (w patternWindow) holds(buf []byte, off int64) bool {
	phase, piece := int(off%256), len(w)-256
	for len(buf) > 0 {
		n := min(len(buf), piece)
		if !bytes.Equal(buf[:n], w[phase:phase+n]) {
			return false
		}
		buf = buf[n:] // piece is whole periods, so the phase holds
	}
	return true
}

// readValid reports whether a call that returned ret filled dst, and dst
// holds the pattern from file offset off on. The return value matters
// even when the bytes match: a destination still holding an earlier
// read's bytes passes the byte check at any offset a multiple of 256
// away.
func (w patternWindow) readValid(ret int64, dst []byte, off int64) bool {
	return ret == int64(len(dst)) && w.holds(dst, off)
}

// readBufs is a run's free list of read destinations. A destination
// goes back once its read has been checked and is zeroed before its next
// read, so a read that writes nothing still fails validation and every
// destination a call sees at ready is zeros.
type readBufs struct{ free [][]byte }

// get returns a zeroed n-byte destination.
func (r *readBufs) get(n int64) []byte {
	if k := len(r.free); k > 0 && int64(cap(r.free[k-1])) >= n {
		b := r.free[k-1][:n]
		r.free = r.free[:k-1]
		clear(b)
		return b
	}
	return make([]byte, n)
}

func (r *readBufs) put(b []byte) { r.free = append(r.free, b) }

// PreadConfig parameterizes the Figure 7 / Figure 10 microbenchmark:
// GPU work-items cooperatively pread a tmpfs file.
type PreadConfig struct {
	FileSize    int64
	ChunkPerWI  int64 // bytes of file each work-item covers
	WGSize      int
	Granularity Granularity
	Wait        core.WaitMode
}

// PreadResult reports one run.
type PreadResult struct {
	ReadTime sim.Time
	Bytes    int64
	Syscalls int64
	// Validated: every call read its full length, and every byte of
	// every destination holds the file's pattern.
	Validated bool
}

// LatencyPerByte returns ns per byte read (Figure 10's y-axis).
func (r PreadResult) LatencyPerByte() float64 {
	if r.Bytes == 0 {
		return 0
	}
	return float64(r.ReadTime) / float64(r.Bytes)
}

// RunPread executes the pread microbenchmark on a fresh machine.
func RunPread(m *platform.Machine, cfg PreadConfig) (PreadResult, error) {
	if cfg.ChunkPerWI <= 0 {
		cfg.ChunkPerWI = 64 << 10
	}
	if cfg.WGSize <= 0 {
		cfg.WGSize = 64
	}
	if cfg.FileSize%cfg.ChunkPerWI != 0 {
		return PreadResult{}, fmt.Errorf("file size %d not divisible by chunk %d",
			cfg.FileSize, cfg.ChunkPerWI)
	}
	workItems := int(cfg.FileSize / cfg.ChunkPerWI)
	if workItems%cfg.WGSize != 0 {
		return PreadResult{}, fmt.Errorf("%d work-items not divisible by WG size %d",
			workItems, cfg.WGSize)
	}

	pr := m.NewProcess("pread-bench")
	if err := stagePattern(m, "/tmp/input", cfg.FileSize, preadSeed); err != nil {
		return PreadResult{}, err
	}
	f, err := m.VFS.Open("/tmp/input", fs.O_RDONLY)
	if err != nil {
		return PreadResult{}, err
	}
	fd, err := pr.FDs.Install(f)
	if err != nil {
		return PreadResult{}, err
	}

	g := m.Genesys
	want := newPatternWindow(preadSeed)
	validated := true
	var bufs readBufs
	var kernelBuf []byte // only kernel granularity reads into one shared buffer
	if cfg.Granularity == GranKernel {
		kernelBuf = make([]byte, cfg.FileSize)
	}
	var res PreadResult
	m.E.Spawn("host", func(p *sim.Proc) {
		wgBytes := cfg.ChunkPerWI * int64(cfg.WGSize)
		k := m.GPU.Launch(p, gpu.Kernel{
			Name:       "pread-bench",
			WorkGroups: workItems / cfg.WGSize,
			WGSize:     cfg.WGSize,
			Fn: func(w *gpu.Wavefront) {
				switch cfg.Granularity {
				case GranWorkItem:
					// The wavefront's lanes read into consecutive pieces
					// of one slab, as their file chunks are consecutive.
					slab := bufs.get(int64(w.Lanes) * cfg.ChunkPerWI)
					off := int64(w.GlobalWorkItemID(0)) * cfg.ChunkPerWI
					rs := g.InvokeEach(w, func(lane int) (syscalls.Request, bool) {
						at := int64(lane) * cfg.ChunkPerWI
						return syscalls.Request{
							NR:   syscalls.SYS_pread64,
							Args: [6]uint64{uint64(fd), uint64(cfg.ChunkPerWI), uint64(off + at)},
							Buf:  slab[at : at+cfg.ChunkPerWI],
						}, true
					}, core.Options{Blocking: true, Wait: cfg.Wait})
					for lane, r := range rs {
						at := int64(lane) * cfg.ChunkPerWI
						if !want.readValid(r.Ret, slab[at:at+cfg.ChunkPerWI], off+at) {
							validated = false
						}
					}
					bufs.put(slab)
				case GranWorkGroup:
					off := int64(w.WG.ID) * wgBytes
					var buf []byte // only the leader's request reads
					if w.IsLeader() {
						buf = bufs.get(wgBytes)
					}
					r, invoker := g.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pread64,
						Args: [6]uint64{uint64(fd), uint64(wgBytes), uint64(off)},
						Buf:  buf,
					}, core.Options{Blocking: true, Wait: cfg.Wait,
						Ordering: core.Relaxed, Kind: core.Producer})
					if invoker {
						if !want.readValid(r.Ret, buf, off) {
							validated = false
						}
						bufs.put(buf)
					}
				case GranKernel:
					r, invoker, err := g.InvokeKernel(w, syscalls.Request{
						NR:   syscalls.SYS_pread64,
						Args: [6]uint64{uint64(fd), uint64(cfg.FileSize), 0},
						Buf:  kernelBuf,
					}, core.Options{Blocking: true, Wait: cfg.Wait,
						Ordering: core.Relaxed, Kind: core.Producer})
					if err != nil {
						validated = false
					}
					if invoker && !want.readValid(r.Ret, kernelBuf, 0) {
						validated = false
					}
				}
			},
		})
		k.Wait(p)
		g.Drain(p)
		res.ReadTime = p.Now() - k.LaunchedAt
	})
	if err := m.Run(); err != nil {
		return PreadResult{}, err
	}
	res.Bytes = cfg.FileSize
	res.Syscalls = g.Invocations
	res.Validated = validated
	return res, nil
}

// PermuteConfig parameterizes the Figure 8 microbenchmark: work-groups of
// 1024 work-items permute 8 KiB blocks (DES-style) and pwrite the results,
// under each blocking × ordering combination.
type PermuteConfig struct {
	Blocks         int
	BlockSize      int
	Iterations     int
	WGSize         int
	Blocking       bool
	Ordering       core.Ordering
	Wait           core.WaitMode
	ComputePerIter sim.Time // per-wavefront compute per permutation round
}

// PermuteResult reports one run.
type PermuteResult struct {
	TotalTime      sim.Time
	PerPermutation sim.Time
	Validated      bool
}

// permuteBlock applies rounds rounds of the fixed block permutation, in
// which byte i moves to (i*257+31) mod n, as one pass: after R rounds
// byte i is at (257^R·i + 31·(1+257+…+257^(R−1))) mod n, with the index
// stepped incrementally. The pass equals R single rounds only when
// gcd(257, n) = 1, as a single round is then a bijection. tmp is scratch
// of at least len(b) bytes.
func permuteBlock(b, tmp []byte, rounds int) {
	n := len(b)
	if n == 0 {
		return
	}
	tmp = tmp[:n]
	step, j := 1, 0 // the composed map is i → step·i + j mod n
	for r := 0; r < rounds; r++ {
		step, j = step*257%n, (j*257+31)%n
	}
	for _, c := range b {
		tmp[j] = c
		if j += step; j >= n {
			j -= n
		}
	}
	copy(b, tmp)
}

// RunPermute executes the blocking/ordering microbenchmark.
func RunPermute(m *platform.Machine, cfg PermuteConfig) (PermuteResult, error) {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 8 << 10
	}
	if cfg.WGSize <= 0 {
		cfg.WGSize = 1024
	}
	if cfg.ComputePerIter <= 0 {
		cfg.ComputePerIter = 3 * sim.Microsecond
	}
	if cfg.BlockSize%257 == 0 {
		return PermuteResult{}, fmt.Errorf("permute: block size %d is a multiple of 257, so one round is no permutation", cfg.BlockSize)
	}
	pr := m.NewProcess("permute")
	f, err := m.VFS.Open("/tmp/permuted", fs.O_CREAT|fs.O_WRONLY)
	if err != nil {
		return PermuteResult{}, err
	}
	fd, err := pr.FDs.Install(f)
	if err != nil {
		return PermuteResult{}, err
	}

	input := permuteInput(cfg.Blocks, cfg.BlockSize)

	// scratch is permuteBlock's buffer for the whole run: the leaders'
	// calls never yield, so they cannot overlap.
	scratch := make([]byte, cfg.BlockSize)
	g := m.Genesys
	var res PermuteResult
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name:       "permute",
			WorkGroups: cfg.Blocks,
			WGSize:     cfg.WGSize,
			Fn: func(w *gpu.Wavefront) {
				// Each wavefront contributes its share of every round's
				// permutation work; nothing reads the block before the
				// pwrite, so the leader applies all rounds at once, in
				// the last.
				for it := 0; it < cfg.Iterations; it++ {
					w.ComputeTime(cfg.ComputePerIter)
					if w.IsLeader() && it == cfg.Iterations-1 {
						permuteBlock(input[w.WG.ID], scratch, cfg.Iterations)
					}
					w.Barrier()
				}
				g.InvokeWG(w, syscalls.Request{
					NR: syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), uint64(cfg.BlockSize),
						uint64(w.WG.ID * cfg.BlockSize)},
					Buf: input[w.WG.ID],
				}, core.Options{Blocking: cfg.Blocking, Wait: cfg.Wait,
					Ordering: cfg.Ordering, Kind: core.Consumer})
			},
		})
		k.Wait(p)
		g.Drain(p)
		res.TotalTime = p.Now() - k.LaunchedAt
	})
	if err := m.Run(); err != nil {
		return PermuteResult{}, err
	}
	res.PerPermutation = res.TotalTime / sim.Time(cfg.Blocks*maxInt(cfg.Iterations, 1))
	out, err := m.ReadFile("/tmp/permuted")
	if err != nil {
		return PermuteResult{}, err
	}
	res.Validated = permutedValid(out, cfg.Blocks, cfg.BlockSize, cfg.Iterations)
	return res, nil
}

// permuteInput returns blocks input blocks of size bytes, filled from one
// seeded math/rand stream. Unlike fillPattern, which repeats every 256
// bytes, no block has a period shorter than itself, so a byte moved to
// the wrong place shows in the check.
func permuteInput(blocks, size int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	input := make([][]byte, blocks)
	for i := range input {
		input[i] = make([]byte, size)
		rng.Read(input[i])
	}
	return input
}

// permutedValid reports whether out holds blocks blocks of size bytes
// and its first block is permuteInput's first block after rounds rounds
// of the block permutation, applied one round at a time.
func permutedValid(out []byte, blocks, size, rounds int) bool {
	ref, tmp := permuteInput(1, size)[0], make([]byte, size)
	for r := 0; r < rounds; r++ {
		permuteBlock(ref, tmp, 1)
	}
	return len(out) == blocks*size && bytes.Equal(out[:size], ref)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PollProbeConfig parameterizes the Figure 9 experiment: a fixed
// population of GPU wavefronts polls PolledLines distinct cache lines
// while a CPU probe measures its own memory access throughput.
type PollProbeConfig struct {
	PolledLines int
	PollerWaves int      // concurrently polling wavefronts
	Duration    sim.Time // measurement window
}

// PollProbeResult reports the probe's achieved throughput.
type PollProbeResult struct {
	CPUAccessesPerSec float64
	GPUL2MissRate     float64
}

// RunPollProbe executes the polling-contention experiment.
func RunPollProbe(m *platform.Machine, cfg PollProbeConfig) (PollProbeResult, error) {
	if cfg.PollerWaves <= 0 {
		cfg.PollerWaves = 256
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * sim.Millisecond
	}
	m.NewProcess("poll-probe")
	m.Mem.AddPolledLines(cfg.PolledLines)
	deadline := cfg.Duration

	m.E.Spawn("gpu-pollers", func(p *sim.Proc) {
		m.GPU.Launch(p, gpu.Kernel{
			Name:       "pollers",
			WorkGroups: cfg.PollerWaves,
			WGSize:     64,
			Fn: func(w *gpu.Wavefront) {
				for w.P.Now() < deadline {
					m.Mem.PollLoad(w.P)
				}
			},
		})
	})
	var accesses int64
	m.E.Spawn("cpu-probe", func(p *sim.Proc) {
		for p.Now() < deadline {
			m.Mem.CPUAccess(p)
			accesses++
		}
	})
	if err := m.Run(); err != nil {
		return PollProbeResult{}, err
	}
	total := m.Mem.L2Hits + m.Mem.L2Misses
	missRate := 0.0
	if total > 0 {
		missRate = float64(m.Mem.L2Misses) / float64(total)
	}
	return PollProbeResult{
		CPUAccessesPerSec: float64(accesses) / deadline.Seconds(),
		GPUL2MissRate:     missRate,
	}, nil
}
