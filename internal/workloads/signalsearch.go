package workloads

import (
	"crypto/sha512"
	"fmt"

	"genesys/internal/core"
	"genesys/internal/cpu"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sig"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// SignalSearchConfig parameterizes the §VIII-B signals case study: a
// two-phase map-reduce where the GPU performs a parallel lookup over data
// blocks and the CPU computes sha512 checksums of the retrieved blocks.
// With UseSignals, GPU work-groups emit rt_sigqueueinfo as each block's
// lookup completes (the work-group ID travels in si_value), letting the
// CPU start checksumming immediately; the baseline runs the two phases
// back to back.
type SignalSearchConfig struct {
	Blocks     int
	BlockBytes int
	UseSignals bool
	// GPUScanPerBlock is the lookup time one work-group spends per block.
	GPUScanPerBlock sim.Time
	// CPUShaBytesPerNS is the CPU's sha512 throughput (with dedicated
	// instructions, per the paper).
	CPUShaBytesPerNS float64
	// Handlers is the number of CPU handler threads.
	Handlers int
}

// DefaultSignalSearchConfig sizes the CPU phase at roughly a sixth of the
// GPU phase, the regime in which the paper reports ~14% gain.
func DefaultSignalSearchConfig() SignalSearchConfig {
	return SignalSearchConfig{
		Blocks:           96,
		BlockBytes:       64 << 10,
		UseSignals:       true,
		GPUScanPerBlock:  4 * sim.Millisecond,
		CPUShaBytesPerNS: 1.0,
		Handlers:         1,
	}
}

// SignalSearchResult reports one run.
type SignalSearchResult struct {
	Runtime sim.Time
	// Digests holds the per-block sha512 sums, indexed by block.
	Digests [][]byte
	Signals int64
}

// RunSignalSearch executes the workload.
func RunSignalSearch(m *platform.Machine, cfg SignalSearchConfig) (SignalSearchResult, error) {
	if cfg.Handlers <= 0 {
		cfg.Handlers = 1
	}
	pr := m.NewProcess("signal-search")
	g := m.Genesys

	// Deterministic data blocks.
	blocks := make([][]byte, cfg.Blocks)
	for i := range blocks {
		blocks[i] = make([]byte, cfg.BlockBytes)
		fillPattern(blocks[i], byte(i*3))
	}

	res := SignalSearchResult{Digests: make([][]byte, cfg.Blocks)}
	shaTime := sim.Time(float64(cfg.BlockBytes) / cfg.CPUShaBytesPerNS)

	checksum := func(p *sim.Proc, block int) {
		m.CPU.ExecChunked(p, shaTime, 500*sim.Microsecond, cpu.PrioNormal)
		sum := sha512.Sum512(blocks[block])
		res.Digests[block] = sum[:]
	}

	launchLookup := func(p *sim.Proc) *gpu.KernelRun {
		return m.GPU.Launch(p, gpu.Kernel{
			Name:       "parallel-lookup",
			WorkGroups: cfg.Blocks,
			WGSize:     1024, // 16 wavefronts: ≤20 resident blocks, so completions stagger
			Fn: func(w *gpu.Wavefront) {
				w.ComputeTime(cfg.GPUScanPerBlock)
				if cfg.UseSignals {
					// Notify the host that this block's lookup is done.
					g.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_rt_sigqueueinfo,
						Args: [6]uint64{uint64(pr.PID), 34 /* SIGRTMIN */, uint64(w.WG.ID)},
					}, core.Options{Blocking: false,
						Ordering: core.Relaxed, Kind: core.Consumer})
				}
			},
		})
	}

	m.E.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		if cfg.UseSignals {
			done := sim.NewCond(m.E)
			remaining := cfg.Blocks
			for h := 0; h < cfg.Handlers; h++ {
				pr.Spawn(fmt.Sprintf("sig-handler%d", h), func(hp *sim.Proc) {
					for {
						si := pr.Sig.Wait(hp)
						if si.Value < 0 {
							return // poison: all blocks processed
						}
						checksum(hp, int(si.Value))
						remaining--
						if remaining == 0 {
							done.Broadcast()
						}
					}
				})
			}
			k := launchLookup(p)
			k.Wait(p)
			g.Drain(p)
			for remaining > 0 {
				done.Wait(p, "signal-search completion")
			}
			for h := 0; h < cfg.Handlers; h++ {
				pr.Sig.Queue(sig.Siginfo{Value: -1})
			}
		} else {
			k := launchLookup(p)
			k.Wait(p)
			for b := 0; b < cfg.Blocks; b++ {
				checksum(p, b)
			}
		}
		res.Runtime = p.Now() - start
	})
	if err := m.Run(); err != nil {
		return res, err
	}
	res.Signals = pr.Sig.Delivered
	if cfg.UseSignals {
		res.Signals -= int64(cfg.Handlers) // exclude shutdown poison
	}
	return res, nil
}

// ReferenceSha512 computes the expected digest of block i under the
// deterministic fill, for validation.
func ReferenceSha512(blockBytes, i int) []byte {
	b := make([]byte, blockBytes)
	fillPattern(b, byte(i*3))
	sum := sha512.Sum512(b)
	return sum[:]
}
