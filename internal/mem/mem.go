// Package mem models the shared memory system of the simulated APU: a
// single DRAM controller shared by CPU and GPU, the GPU's coherent L2
// cache (capacity model), and the per-operation costs of the GPU atomic
// instructions GENESYS relies on to access the syscall area.
//
// Two properties of the paper's platform matter here:
//
//  1. GPU atomics bypass the non-coherent L1 and are serviced at the L2,
//     making them far costlier than plain loads (Table IV), and
//  2. when the set of memory locations the GPU polls exceeds the L2's
//     capacity, polling traffic spills to DRAM and contends with CPU
//     accesses on the shared controller (Figure 9).
package mem

import "genesys/internal/sim"

// Op identifies a GPU memory operation whose cost is profiled in Table IV.
type Op int

const (
	// OpLoad is a plain (L1-served) vector load.
	OpLoad Op = iota
	// OpAtomicLoad is an atomic load, forced to the L2.
	OpAtomicLoad
	// OpSwap is an atomic exchange at the L2.
	OpSwap
	// OpCmpSwap is an atomic compare-and-swap at the L2.
	OpCmpSwap
)

func (o Op) String() string {
	switch o {
	case OpLoad:
		return "load"
	case OpAtomicLoad:
		return "atomic-load"
	case OpSwap:
		return "swap"
	case OpCmpSwap:
		return "cmp-swap"
	}
	return "unknown-op"
}

// Config holds the memory-system parameters. The defaults (see
// DefaultConfig) approximate the FX-9800P platform of Table III.
type Config struct {
	LineSize int64 // cache-line size in bytes

	// GPU L2: capacity in lines and hit latency.
	L2Lines   int
	L2HitTime sim.Time

	// Plain load served by the GPU L1.
	L1HitTime sim.Time

	// Atomic operation latencies (always at least an L2 round trip).
	AtomicLoadTime sim.Time
	SwapTime       sim.Time
	CmpSwapTime    sim.Time

	// Store of one line into the (write-through to L2) syscall area.
	LineWriteTime sim.Time

	// L2AtomicService is the L2 atomic unit's per-operation occupancy:
	// concurrent GPU atomics serialize on it, so heavy polling slows
	// every other syscall-area access (one reason WI-granularity polling
	// loses to halt-resume, §V-C).
	L2AtomicService sim.Time

	// DRAM controller shared between CPU and GPU.
	DRAMAccessTime  sim.Time // fixed latency component per access
	DRAMServiceTime sim.Time // minimum controller occupancy per access
	DRAMBandwidth   float64  // bytes per nanosecond of controller occupancy
}

// DefaultConfig returns parameters approximating the paper's platform:
// 64 B lines, a 256 KiB GPU L2 (4096 lines — the Fig 9 knee), dual-channel
// DDR4 at ~12.8 GB/s, and Table IV-magnitude atomic costs.
func DefaultConfig() Config {
	return Config{
		LineSize:        64,
		L2Lines:         4096,
		L2HitTime:       200 * sim.Nanosecond,
		L1HitTime:       80 * sim.Nanosecond, // Table IV "load": 0.08 us
		AtomicLoadTime:  sim.Micros(1.4),
		SwapTime:        sim.Micros(1.9),
		CmpSwapTime:     sim.Micros(2.1),
		LineWriteTime:   250 * sim.Nanosecond,
		L2AtomicService: 10 * sim.Nanosecond,
		DRAMAccessTime:  60 * sim.Nanosecond,
		DRAMServiceTime: 15 * sim.Nanosecond,
		DRAMBandwidth:   12.8, // bytes/ns = GB/s
	}
}

// System is the shared memory system.
type System struct {
	e   *sim.Engine
	cfg Config

	ctrlFree     sim.Time // next instant the DRAM controller is free
	l2AtomicFree sim.Time // next instant the L2 atomic unit is free

	// PolledLines is the number of distinct cache lines the GPU is
	// currently polling; it determines whether poll loads hit in the L2.
	// The GENESYS layer and microbenchmarks update it as pollers come and
	// go.
	polledLines int

	DRAMAccesses int64
	L2Hits       int64
	L2Misses     int64
	AtomicOps    int64
}

// New returns a memory system bound to e.
func New(e *sim.Engine, cfg Config) *System {
	if cfg.LineSize <= 0 || cfg.DRAMBandwidth <= 0 {
		panic("mem: invalid config")
	}
	return &System{e: e, cfg: cfg}
}

// Config returns the system's configuration.
func (m *System) Config() Config { return m.cfg }

// OpTime returns the base latency of op, not counting DRAM spill.
func (m *System) OpTime(op Op) sim.Time {
	switch op {
	case OpLoad:
		return m.cfg.L1HitTime
	case OpAtomicLoad:
		return m.cfg.AtomicLoadTime
	case OpSwap:
		return m.cfg.SwapTime
	case OpCmpSwap:
		return m.cfg.CmpSwapTime
	}
	panic("mem: unknown op")
}

// dramStart reserves one DRAM controller access transferring n bytes at
// the current instant and returns the delay until it completes (queueing,
// occupancy and fixed latency).
func (m *System) dramStart(n int64) sim.Time {
	now := m.e.Now()
	start := now
	if m.ctrlFree > start {
		start = m.ctrlFree
	}
	occupancy := sim.Time(float64(n) / m.cfg.DRAMBandwidth)
	if occupancy < m.cfg.DRAMServiceTime {
		occupancy = m.cfg.DRAMServiceTime
	}
	if occupancy < 1 {
		occupancy = 1
	}
	m.ctrlFree = start + occupancy
	m.DRAMAccesses++
	return start + occupancy + m.cfg.DRAMAccessTime - now
}

// CPUAccess performs one uncached CPU access of a single line, through
// the shared controller. Used by the Figure 9 probe.
func (m *System) CPUAccess(p *sim.Proc) {
	p.Sleep(m.dramStart(m.cfg.LineSize))
}

// Copy charges the cost of moving n bytes through the memory system
// (e.g. a tmpfs read's memcpy, or filling a syscall buffer). Large copies
// occupy the controller proportionally, creating contention.
func (m *System) Copy(p *sim.Proc, n int64) {
	if n <= 0 {
		return
	}
	p.Sleep(m.dramStart(n))
}

// GPUAtomic performs one GPU atomic operation against a working set of
// workingSetLines distinct lines. If the working set exceeds the L2
// capacity the access may miss and additionally occupy DRAM — the
// mechanism behind Figure 9's contention knee.
func (m *System) GPUAtomic(p *sim.Proc, op Op, workingSetLines int) {
	p.Sleep(m.AtomicStart(op))
	p.Sleep(m.Settle(workingSetLines))
}

// GPULoad performs a plain GPU load against a working set of
// workingSetLines distinct lines (0 = always hits).
func (m *System) GPULoad(p *sim.Proc, workingSetLines int) {
	p.Sleep(m.cfg.L1HitTime)
	p.Sleep(m.Settle(workingSetLines))
}

// AtomicStart and Settle are the two phases of every GPU atomic; the
// callback-driven poll wait in core calls them directly. AtomicStart
// serializes on the L2 atomic unit at the current instant and returns
// the delay until op completes; Settle, called at that later instant,
// decides hit or miss for one line of a workingSetLines-line working set
// and returns any extra DRAM spill delay (zero on a hit). Sleeping
// through both delays in turn is GPUAtomic.
func (m *System) AtomicStart(op Op) sim.Time {
	m.AtomicOps++
	now := m.e.Now()
	start := max(now, m.l2AtomicFree)
	m.l2AtomicFree = start + m.cfg.L2AtomicService
	return start - now + m.OpTime(op)
}

// Settle is the second phase of a GPU atomic or load (see AtomicStart).
func (m *System) Settle(workingSetLines int) sim.Time {
	if m.l2Miss(workingSetLines) {
		m.L2Misses++
		return m.dramStart(m.cfg.LineSize)
	}
	m.L2Hits++
	return 0
}

// GPUWriteLine charges the cost of storing one line (e.g. populating a
// syscall-area slot).
func (m *System) GPUWriteLine(p *sim.Proc) {
	p.Sleep(m.cfg.LineWriteTime)
}

// l2Miss decides hit/miss for an access within a working set of ws lines.
// The model is capacity-only: the hit ratio is L2Lines/ws, decided with
// the engine's deterministic random source.
func (m *System) l2Miss(ws int) bool {
	if ws <= m.cfg.L2Lines {
		return false
	}
	hitProb := float64(m.cfg.L2Lines) / float64(ws)
	return m.e.Rand.Float64() >= hitProb
}

// AddPolledLines registers n more (or with negative n, fewer) cache lines
// as being concurrently polled by the GPU and returns the new total.
func (m *System) AddPolledLines(n int) int {
	m.polledLines += n
	if m.polledLines < 0 {
		m.polledLines = 0
	}
	return m.polledLines
}

// PolledLines returns the number of lines currently polled.
func (m *System) PolledLines() int { return m.polledLines }

// PollLoad performs one GPU polling load whose working set is the number
// of lines polled when the load's latency has passed.
func (m *System) PollLoad(p *sim.Proc) {
	p.Sleep(m.AtomicStart(OpAtomicLoad))
	p.Sleep(m.Settle(m.polledLines))
}
