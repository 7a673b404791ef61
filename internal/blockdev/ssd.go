// Package blockdev models the storage device behind the simulated
// SSD-backed filesystem. The device has a fixed per-command overhead and
// several independent NAND channels; aggregate throughput therefore
// scales with I/O queue depth, which is the mechanism behind the paper's
// Figure 14: a serial CPU reader achieves ~30 MB/s while the GPU's many
// concurrent pread requests drive the same device to ~170 MB/s.
package blockdev

import (
	"genesys/internal/errno"
	"genesys/internal/fault"
	"genesys/internal/obs"
	"genesys/internal/sim"
)

// Config describes an SSD.
type Config struct {
	Channels         int
	ChannelBandwidth float64  // bytes per nanosecond per channel
	CommandOverhead  sim.Time // per-command fixed service time
}

// traceBin is the initial bin width of the throughput trace.
const traceBin = 10 * sim.Millisecond

// DefaultConfig returns an 8-channel device with 24 MB/s per channel and
// 60 us command overhead: ~27 MB/s at queue depth 1 with 128 KiB requests,
// ~180 MB/s when all channels are kept busy.
func DefaultConfig() Config {
	return Config{
		Channels:         8,
		ChannelBandwidth: 0.024,
		CommandOverhead:  60 * sim.Microsecond,
	}
}

// SSD is the simulated device.
type SSD struct {
	e   *sim.Engine
	cfg Config

	chFree []sim.Time // per-channel next-free instant

	inject *fault.Injector
	events *obs.EventLog

	BytesRead    int64
	BytesWritten int64
	Commands     int64
	// Retries counts transiently-failed commands the device's firmware
	// reissued (the block layer's retry-on-media-error behaviour).
	Retries int64

	trace *sim.Series // bytes transferred per trace bin
}

// maxCmdRetries bounds firmware-level reissues of a failed command.
const maxCmdRetries = 2

// New returns an SSD bound to e. Each command becomes a span in events
// on the channel it occupied (one trace-viewer thread per NAND channel).
// Faults from in: latency spikes stretch one command's service time,
// io-errors fail the command (retried internally up to maxCmdRetries
// before EIO surfaces).
func New(e *sim.Engine, cfg Config, events *obs.EventLog, in *fault.Injector) *SSD {
	if cfg.Channels <= 0 || cfg.ChannelBandwidth <= 0 {
		panic("blockdev: invalid config")
	}
	return &SSD{
		e:      e,
		cfg:    cfg,
		chFree: make([]sim.Time, cfg.Channels),
		inject: in,
		events: events,
		trace:  sim.NewSeries(traceBin, sim.SumBins),
	}
}

// Config returns the device configuration.
func (d *SSD) Config() Config { return d.cfg }

// transfer performs one command moving n bytes; the calling process
// waits for channel queueing plus service time. Injected latency spikes
// stretch the service time; injected I/O errors fail the command, which
// the device reissues up to maxCmdRetries times before surfacing EIO.
func (d *SSD) transfer(p *sim.Proc, n int64, op string, trace uint64) error {
	for attempt := 0; ; attempt++ {
		// Pick the earliest-free channel.
		best := 0
		for i := 1; i < len(d.chFree); i++ {
			if d.chFree[i] < d.chFree[best] {
				best = i
			}
		}
		now := d.e.Now()
		start := now
		if d.chFree[best] > start {
			start = d.chFree[best]
		}
		service := d.cfg.CommandOverhead + sim.Time(float64(n)/d.cfg.ChannelBandwidth)
		if r, ok := d.inject.Fire(fault.BlockLatency); ok {
			spike := sim.Time(r.Param)
			if spike <= 0 {
				spike = 500 * sim.Microsecond
			}
			service += spike
		}
		end := start + service
		d.chFree[best] = end
		d.Commands++
		d.trace.AddInterval(start, end, float64(n))
		fp := obs.FlowNone
		if trace != 0 {
			fp = obs.FlowStep
		}
		d.events.FlowSpan("blockdev", op, obs.PIDBlockdev, best,
			start, end, trace, fp, op)
		p.Sleep(end - now)
		if d.inject.Should(fault.BlockError) {
			if attempt < maxCmdRetries {
				d.Retries++
				continue
			}
			d.inject.NoteSurfaced()
			return errno.EIO
		}
		if attempt > 0 {
			d.inject.NoteRecovered()
		}
		return nil
	}
}

// Read transfers n bytes from the device into memory.
func (d *SSD) Read(p *sim.Proc, n int64) error { return d.ReadTraced(p, n, 0) }

// ReadTraced is Read with the transfer linked into causal flow chain
// trace (0 disables linking).
func (d *SSD) ReadTraced(p *sim.Proc, n int64, trace uint64) error {
	if n <= 0 {
		return nil
	}
	d.BytesRead += n
	return d.transfer(p, n, "read", trace)
}

// Write transfers n bytes from memory to the device.
func (d *SSD) Write(p *sim.Proc, n int64) error { return d.WriteTraced(p, n, 0) }

// WriteTraced is Write with the transfer linked into causal flow chain
// trace (0 disables linking).
func (d *SSD) WriteTraced(p *sim.Proc, n int64, trace uint64) error {
	if n <= 0 {
		return nil
	}
	d.BytesWritten += n
	return d.transfer(p, n, "write", trace)
}

// ThroughputTrace returns per-bin device throughput in MB/s.
func (d *SSD) ThroughputTrace() []float64 {
	bins := d.trace.Bins()
	out := make([]float64, len(bins))
	binSec := d.trace.BinWidth.Seconds()
	for i, b := range bins {
		out[i] = b / binSec / 1e6
	}
	return out
}

// ResetStats clears counters and the throughput trace (channel occupancy
// is preserved).
func (d *SSD) ResetStats() {
	d.BytesRead, d.BytesWritten, d.Commands = 0, 0, 0
	d.trace = sim.NewSeries(traceBin, sim.SumBins)
}
