// Package cpu models the host CPU: a fixed number of cores that simulated
// threads compete for, with run-to-block scheduling, priority classes and
// a busy-time ledger whose mean utilization the paper's Figure 14
// reports.
package cpu

import (
	"genesys/internal/obs"
	"genesys/internal/sim"
)

// Scheduling priorities. Higher values are granted cores first.
const (
	PrioNormal = 0  // application threads
	PrioKernel = 5  // OS worker threads processing GPU system calls
	PrioIRQ    = 10 // interrupt handling
)

// Config describes the CPU complex.
type Config struct {
	Cores    int
	ClockMHz int
}

// DefaultConfig matches Table III: 4 cores at 2.7 GHz.
func DefaultConfig() Config {
	return Config{Cores: 4, ClockMHz: 2700}
}

// CPU is the simulated processor complex.
type CPU struct {
	e     *sim.Engine
	cfg   Config
	cores *sim.Resource

	busyTotal sim.Time

	// busy/waiting integrate core occupancy and the number of threads
	// queued for a core at each virtual instant.
	busy    *obs.UtilTrack
	waiting *obs.UtilTrack
}

// New returns a CPU bound to e. The occupancy track busy counts cores
// executing; waiting counts threads queued on core acquisition.
func New(e *sim.Engine, cfg Config, busy, waiting *obs.UtilTrack) *CPU {
	if cfg.Cores <= 0 {
		panic("cpu: need at least one core")
	}
	return &CPU{
		e:       e,
		cfg:     cfg,
		cores:   sim.NewResource(e, "cpu-cores", cfg.Cores),
		busy:    busy,
		waiting: waiting,
	}
}

// Config returns the CPU configuration.
func (c *CPU) Config() Config { return c.cfg }

// Cores exposes the underlying core resource (for tests and schedulers).
func (c *CPU) Cores() *sim.Resource { return c.cores }

// CyclesTime converts a cycle count at the configured clock to time.
func (c *CPU) CyclesTime(cycles int64) sim.Time {
	return sim.Time(cycles * 1000 / int64(c.cfg.ClockMHz))
}

// Exec runs d of computation on one core at the given priority, blocking
// until a core is available and the work completes. Scheduling is
// run-to-block: callers doing long computations should use ExecChunked so
// other threads can interleave.
func (c *CPU) Exec(p *sim.Proc, d sim.Time, prio int) {
	if d <= 0 {
		return
	}
	c.waiting.Add(c.e.Now(), 1)
	c.cores.Acquire(p, prio)
	start := c.e.Now()
	c.waiting.Add(start, -1)
	c.busy.Add(start, 1)
	p.Sleep(d)
	end := c.e.Now()
	c.busyTotal += end - start
	c.busy.Add(end, -1)
	c.cores.Release()
}

// ExecChunked runs total of computation in chunk-sized timeslices,
// releasing the core between slices so equal-priority threads share cores
// fairly.
func (c *CPU) ExecChunked(p *sim.Proc, total, chunk sim.Time, prio int) {
	if chunk <= 0 {
		chunk = sim.Millisecond
	}
	for total > 0 {
		d := chunk
		if d > total {
			d = total
		}
		c.Exec(p, d, prio)
		total -= d
	}
}

// BusyTotal returns total core-busy time accumulated so far.
func (c *CPU) BusyTotal() sim.Time { return c.busyTotal }

// MeanUtilization returns average utilization (percent of all cores)
// over [0, until].
func (c *CPU) MeanUtilization(until sim.Time) float64 {
	if until <= 0 {
		return 0
	}
	return 100 * float64(c.busyTotal) / (float64(until) * float64(c.cfg.Cores))
}
