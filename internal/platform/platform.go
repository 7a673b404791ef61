// Package platform assembles the full simulated machine the experiments
// run on: CPU, GPU, memory system, kernel, filesystems (tmpfs + SSD),
// network stack, framebuffer and the GENESYS layer — the counterpart of
// the paper's Table III testbed.
package platform

import (
	"fmt"

	"genesys/internal/blockdev"
	"genesys/internal/core"
	"genesys/internal/cpu"
	"genesys/internal/fault"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/mem"
	"genesys/internal/netstack"
	"genesys/internal/obs"
	"genesys/internal/oskern"
	"genesys/internal/sim"
	"genesys/internal/vmm"
)

// Config aggregates every subsystem's configuration.
type Config struct {
	Seed    int64
	CPU     cpu.Config
	GPU     gpu.Config
	Mem     mem.Config
	Kernel  oskern.Config
	VM      vmm.Config
	SSD     blockdev.Config
	Net     netstack.Config
	Genesys core.Config
	FB      fs.VScreenInfo

	// Faults, when non-nil, activates fault injection with the given
	// plan. Nil (the default) builds a machine whose behaviour is
	// bit-identical to one without the fault subsystem: the injector
	// exists (so metrics always render) but fires nothing and no
	// recovery machinery arms.
	Faults *fault.Plan

	// EventCap sizes the event-log ring (obs.DefaultEventCap when 0) —
	// long fleet runs wrap the default 1<<16 window and silently drop
	// the interesting early events.
	EventCap int
}

// DefaultConfig mirrors the paper's FX-9800P platform (Table III): 4 CPU
// cores @ 2.7 GHz, an 8-CU GCN3-like integrated GPU @ 758 MHz, 16 GB of
// shared DDR4, Linux-like kernel costs, an 8-channel SATA-class SSD and
// a UDP network stack.
func DefaultConfig() Config {
	return Config{
		Seed:    1,
		CPU:     cpu.DefaultConfig(),
		GPU:     gpu.DefaultConfig(),
		Mem:     mem.DefaultConfig(),
		Kernel:  oskern.DefaultConfig(),
		VM:      vmm.DefaultConfig(),
		SSD:     blockdev.DefaultConfig(),
		Net:     netstack.DefaultConfig(),
		Genesys: core.DefaultConfig(),
		FB:      fs.VScreenInfo{XRes: 1024, YRes: 768, BPP: 32},
	}
}

// DiscreteGPUConfig models the same machine with a discrete PCIe GPU
// instead of the integrated one — the paper notes GENESYS "is not
// specific to integrated GPUs, and generalizes to discrete GPUs" (§VI).
// The differences that matter to GENESYS: a bigger, faster GPU; syscall
// area traffic and interrupts that cross PCIe (higher atomic and
// delivery latencies); and a costlier wavefront resume path.
func DiscreteGPUConfig() Config {
	cfg := DefaultConfig()
	cfg.GPU.CUs = 36
	cfg.GPU.ClockMHz = 1250
	cfg.GPU.InterruptLatency = 15 * sim.Microsecond // PCIe MSI
	cfg.GPU.ResumeLatency = 30 * sim.Microsecond    // doorbell across PCIe
	// Atomics on host-visible memory now pay a PCIe round trip.
	cfg.Mem.CmpSwapTime = sim.Micros(4.8)
	cfg.Mem.SwapTime = sim.Micros(4.4)
	cfg.Mem.AtomicLoadTime = sim.Micros(3.6)
	cfg.Mem.LineWriteTime = 900 * sim.Nanosecond
	return cfg
}

// Machine is one assembled system.
type Machine struct {
	Cfg Config

	E       *sim.Engine
	CPU     *cpu.CPU
	GPU     *gpu.Device
	Mem     *mem.System
	VFS     *fs.VFS
	Tmpfs   *fs.Tmpfs
	SSDFS   *fs.SSDFS
	SSD     *blockdev.SSD
	Net     *netstack.Stack
	OS      *oskern.OS
	Genesys *core.Genesys
	FB      *fs.Framebuffer

	// Inject is the machine's fault injector (always present; inert when
	// Cfg.Faults is nil). Its plan view is served at /sys/genesys/faults.
	Inject *fault.Injector

	// Obs is the machine's observability layer: the metrics registry
	// every subsystem publishes into (served at /sys/genesys/metrics) and
	// the structured event log (disabled until Obs.Events.SetEnabled).
	Obs *obs.Observer
}

// New builds a machine: engine, observability, fault injector,
// substrates, kernel namespaces (/dev, /proc, /sys, /tmp on tmpfs, /data
// on the SSD) and the GENESYS layer. Every layer is built wired to the
// machine's event log, flight recorder, utilization tracks and injector.
func New(cfg Config) *Machine {
	e := sim.NewEngine(cfg.Seed)
	m := &Machine{Cfg: cfg, E: e}
	m.Obs = obs.New(cfg.EventCap)
	ev, util, fl := m.Obs.Events, m.Obs.Util, m.Obs.Flight

	// The injector always exists (so its metrics register and
	// /sys/genesys/faults renders) but has an empty plan — and therefore
	// injects nothing and arms no recovery timers — unless Cfg.Faults is
	// set. Its RNG stream is salted off the machine seed so enabling
	// injection never perturbs the engine's own random stream. Surfaced
	// faults feed the flight recorder's fault-surfaced detector.
	plan := fault.Plan{}
	if cfg.Faults != nil {
		plan = *cfg.Faults
	}
	m.Inject = fault.NewInjector(e, cfg.Seed^0x5DEECE66D, plan,
		func() { fl.NoteSurfaced(e.Now()) })

	// Utilization timelines (§VII's parallelism-vs-coalescing evidence):
	// capped tracks report percent-of-capacity; uncapped ones (waiting
	// threads, busy workers — the pool grows on demand) scale to their
	// own peak. A track's counter-track ID in exported traces is its
	// registration index, so the kernel's track is registered before the
	// GPU's although the kernel is built after the GPU.
	m.Mem = mem.New(e, cfg.Mem)
	m.CPU = cpu.New(e, cfg.CPU,
		util.Track("cpu.busy_cores", cfg.CPU.Cores),
		util.Track("cpu.runnable_waiting", 0))
	busyWorkers := util.Track("oskern.busy_workers", 0)
	m.GPU = gpu.New(e, cfg.GPU, ev,
		util.Track("gpu.busy_cus", cfg.GPU.CUs),
		util.Track("gpu.resident_waves", cfg.GPU.CUs*cfg.GPU.WavefrontsPerCU),
		util.Track("gpu.halted_waves", 0),
		util.Track("gpu.polling_waves", 0))
	m.VFS = fs.NewVFS()
	m.Net = netstack.New(e, cfg.Net, ev, m.Inject)
	pool := &vmm.Pool{Total: cfg.VM.PhysPages}
	m.OS = oskern.New(e, m.CPU, m.VFS, m.Net, pool, cfg.VM, cfg.Kernel,
		ev, busyWorkers, m.Inject)

	m.Tmpfs = fs.NewTmpfs()
	if _, err := m.Tmpfs.Mount(m.VFS, "/tmp"); err != nil {
		panic(err)
	}
	m.SSD = blockdev.New(e, cfg.SSD, ev, m.Inject)
	m.SSDFS = fs.NewSSDFS(m.SSD)
	if _, err := m.SSDFS.Mount(m.VFS, "/data"); err != nil {
		panic(err)
	}
	m.FB = fs.NewFramebuffer(cfg.FB)
	m.OS.AddDevice("fb0", m.FB)

	m.OS.AttachGPU(m.GPU)
	m.Genesys = core.New(e, m.GPU, m.OS, m.Mem, m.CPU, cfg.Genesys, ev, fl, m.Inject)

	m.wireObservability(pool)
	return m
}

// wireObservability publishes every subsystem's counters and gauges in
// the machine's registry under "<subsystem>.<stat>" names, names the
// event log's synthetic processes, registers the flight recorder's
// snapshot sources and serves the views under /sys/genesys.
func (m *Machine) wireObservability(pool *vmm.Pool) {
	reg := m.Obs.Metrics

	reg.RegisterCounter("gpu.kernels_launched", &m.GPU.KernelsLaunched)
	reg.RegisterCounter("gpu.wgs_dispatched", &m.GPU.WGsDispatched)
	reg.RegisterCounter("gpu.interrupts", &m.GPU.Interrupts)
	reg.RegisterCounter("gpu.halts", &m.GPU.Halts)
	reg.RegisterCounter("gpu.resumes", &m.GPU.Resumes)

	reg.RegisterCounter("genesys.invocations", &m.Genesys.Invocations)
	reg.RegisterCounter("genesys.batches", &m.Genesys.Batches)
	reg.RegisterCounter("genesys.batched_waves", &m.Genesys.BatchedWaves)
	reg.RegisterCounter("genesys.slot_conflicts", &m.Genesys.SlotConflicts)
	reg.RegisterGauge("genesys.outstanding", func() int64 {
		return int64(m.Genesys.Outstanding())
	})
	reg.RegisterCounter("genesys.orphans_adopted", &m.Genesys.OrphansAdopted)
	reg.RegisterCounter("genesys.orphans_completed", &m.Genesys.OrphansCompleted)
	reg.RegisterGauge("genesys.orphans_live", func() int64 {
		return int64(m.Genesys.Orphans())
	})

	reg.RegisterCounter("oskern.tasks_run", &m.OS.TasksRun)
	reg.RegisterCounter("oskern.syscalls", &m.OS.Syscalls)
	reg.RegisterGauge("oskern.queue_depth", func() int64 {
		return int64(m.OS.QueueDepth())
	})
	reg.RegisterGauge("oskern.workers", func() int64 {
		return int64(m.OS.Workers())
	})

	reg.RegisterCounter("mem.dram_accesses", &m.Mem.DRAMAccesses)
	reg.RegisterCounter("mem.l2_hits", &m.Mem.L2Hits)
	reg.RegisterCounter("mem.l2_misses", &m.Mem.L2Misses)
	reg.RegisterCounter("mem.atomic_ops", &m.Mem.AtomicOps)

	reg.RegisterGauge("cpu.busy_ns", func() int64 {
		return int64(m.CPU.BusyTotal())
	})

	reg.RegisterCounter("blockdev.bytes_read", &m.SSD.BytesRead)
	reg.RegisterCounter("blockdev.bytes_written", &m.SSD.BytesWritten)
	reg.RegisterCounter("blockdev.commands", &m.SSD.Commands)
	reg.RegisterCounter("blockdev.retries", &m.SSD.Retries)

	reg.RegisterCounter("netstack.sent", &m.Net.Sent)
	reg.RegisterCounter("netstack.dropped", &m.Net.Dropped)
	reg.RegisterCounter("netstack.stream_conns", &m.Net.StreamConns)
	reg.RegisterCounter("netstack.stream_refused", &m.Net.StreamRefused)
	reg.RegisterCounter("netstack.stream_bytes", &m.Net.StreamBytes)

	reg.RegisterCounter("fault.injected", &m.Inject.Injected)
	reg.RegisterCounter("fault.recovered", &m.Inject.Recovered)
	reg.RegisterCounter("fault.surfaced", &m.Inject.Surfaced)
	reg.RegisterCounter("genesys.retries", &m.Genesys.Retries)
	reg.RegisterCounter("genesys.irq_retransmits", &m.Genesys.IRQRetransmits)
	reg.RegisterCounter("oskern.redispatches", &m.OS.Redispatches)
	reg.RegisterCounter("oskern.orphans_reaped", &m.OS.OrphansReaped)

	reg.RegisterGauge("vmm.free_pages", func() int64 {
		return int64(pool.Free())
	})

	// Engine hot-path telemetry: how much scheduling work the simulation
	// itself performs, how much of it is scheduled for the current
	// instant, and how much runs as inline callbacks versus full proc
	// switches.
	reg.RegisterGauge("sim.events_total", func() int64 {
		return int64(m.E.Stats().Scheduled)
	})
	reg.RegisterGauge("sim.events_ready_fast", func() int64 {
		return int64(m.E.Stats().ReadyFast)
	})
	reg.RegisterGauge("sim.callbacks_run", func() int64 {
		return int64(m.E.Stats().CallbacksRun)
	})
	reg.RegisterGauge("sim.proc_switches_total", func() int64 {
		return int64(m.E.Stats().ProcSwitches)
	})
	reg.RegisterGauge("sim.timers_canceled", func() int64 {
		return int64(m.E.Stats().TimersCanceled)
	})
	// Two-level scheduler: far-future events wait in the far heap and
	// only drain into the near-term calendar queue within one granule of
	// their deadline, so the calendar holds the near-term working set
	// rather than every armed timeout. The gauges keep their sim.wheel_*
	// names because the benchmark's golden digests hash them.
	reg.RegisterGauge("sim.wheel_scheduled", func() int64 {
		return int64(m.E.Stats().FarScheduled)
	})
	reg.RegisterGauge("sim.wheel_canceled", func() int64 {
		return int64(m.E.Stats().FarCanceled)
	})
	reg.RegisterGauge("sim.wheel_pending", func() int64 {
		return int64(m.E.FarPending())
	})
	reg.RegisterGauge("sim.wheel_peak", func() int64 {
		return int64(m.E.Stats().FarPeak)
	})
	reg.RegisterGauge("sim.events_pending", func() int64 {
		return int64(m.E.Pending())
	})
	reg.RegisterGauge("sim.procs_live", func() int64 {
		return int64(m.E.LiveProcs())
	})
	reg.RegisterGauge("sim.procs_reaped", func() int64 {
		return int64(m.E.Stats().ProcsReaped)
	})

	ev := m.Obs.Events
	reg.RegisterGauge("obs.events_dropped", ev.Dropped)
	reg.RegisterGauge("obs.events_rejected", ev.Rejected)
	ev.NameProcess(obs.PIDGPU, "gpu")
	ev.NameProcess(obs.PIDKernel, "os-kernel")
	ev.NameProcess(obs.PIDSyscalls, "genesys-syscalls")
	ev.NameProcess(obs.PIDIRQ, "irq")
	ev.NameProcess(obs.PIDWorkqueue, "workqueue")
	ev.NameProcess(obs.PIDBlockdev, "blockdev")
	ev.NameProcess(obs.PIDNetstack, "netstack")
	ev.NameProcess(obs.PIDUtil, "utilization")
	wavesPerCU := m.Cfg.GPU.WavefrontsPerCU
	for slot := 0; slot < m.GPU.HWWavefronts(); slot++ {
		ev.NameThread(obs.PIDGPU, slot,
			fmt.Sprintf("cu%d/wave%d", slot/wavesPerCU, slot%wavesPerCU))
	}

	// Exact end-to-end latency extremes (satellite of the percentile
	// views): the tracer's min/max, readable without Perfetto.
	total := m.Genesys.Tracer().Total()
	reg.RegisterGauge("genesys.total_lat_min_ns", func() int64 {
		return int64(total.Min() * 1000) // µs → ns
	})
	reg.RegisterGauge("genesys.total_lat_max_ns", func() int64 {
		return int64(total.Max() * 1000)
	})

	// The always-on flight recorder: the event log tees flow-tagged
	// spans to it (wired in obs.New), GENESYS feeds its per-call
	// detectors, the injector notifies it of surfaced faults, and the
	// snapshot sources below freeze the machine state views into each
	// diagnostic bundle at its trigger instant.
	util, fl := m.Obs.Util, m.Obs.Flight
	fl.AddSnapshot("critpath", func() []byte {
		return []byte(m.Genesys.Tracer().CritPath())
	})
	fl.AddSnapshot("metrics", func() []byte { return []byte(reg.Render()) })
	fl.AddSnapshot("util", func() []byte { return []byte(util.Render(m.E.Now())) })
	reg.RegisterGauge("obs.flight_anomalies", fl.Anomalies)
	reg.RegisterGauge("obs.flight_bundles", func() int64 { return int64(fl.BundleCount()) })
	reg.RegisterGauge("obs.flight_chains", func() int64 { return int64(fl.Chains()) })
	reg.RegisterGauge("obs.flight_suppressed", fl.Suppressed)

	if m.OS.SysfsRoot != nil {
		m.OS.SysfsRoot.Add("metrics", &fs.GenFile{Gen: func() []byte {
			return []byte(reg.Render())
		}})
		m.OS.SysfsRoot.Add("faults", &fs.GenFile{Gen: func() []byte {
			return []byte(m.Inject.Render())
		}})
		m.OS.SysfsRoot.Add("util", &fs.GenFile{Gen: func() []byte {
			return []byte(util.Render(m.E.Now()))
		}})
		m.OS.SysfsRoot.Add("slo", &fs.GenFile{Gen: func() []byte {
			if s := m.Obs.SLO(); s != nil {
				return []byte(s.Render())
			}
			return []byte("no service-level report (no fleet run yet)\n")
		}})
		m.OS.SysfsRoot.Add("flight", &fs.GenFile{Gen: func() []byte {
			return []byte(fl.Render())
		}})
		m.OS.SysfsRoot.Add("top", &fs.GenFile{Gen: func() []byte {
			return []byte(m.RenderTop())
		}})
	}
}

// NewProcess creates a process and binds it as the GENESYS syscall
// context if none is bound yet.
func (m *Machine) NewProcess(name string) *oskern.Process {
	pr := m.OS.NewProcess(name)
	if m.Genesys.Process() == nil {
		m.Genesys.BindProcess(pr)
	}
	return pr
}

// WriteFile creates path with the given contents (setup helper; costs
// nothing in virtual time). A tmpfs or SSDFS file borrows data's pages
// (fs.Share) instead of copying them, so data must not change after the
// call.
func (m *Machine) WriteFile(path string, data []byte) error {
	f, err := m.VFS.Open(path, fs.O_CREAT|fs.O_WRONLY|fs.O_TRUNC)
	if err != nil {
		return err
	}
	return fs.Share(f.Node, 0, data)
}

// CreateFile creates path, or truncates it if it exists, as a size-byte
// file of zeros and returns it open for writing (setup helper).
func (m *Machine) CreateFile(path string, size int64) (*fs.File, error) {
	f, err := m.VFS.Open(path, fs.O_CREAT|fs.O_WRONLY|fs.O_TRUNC)
	if err != nil {
		return nil, err
	}
	if err := f.Node.Truncate(size); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFile returns the contents of path (setup/verification helper).
func (m *Machine) ReadFile(path string) ([]byte, error) {
	f, err := m.VFS.Open(path, fs.O_RDONLY)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, f.Node.Size())
	n, err := f.Pread(&fs.IOCtx{}, buf, 0)
	return buf[:n], err
}

// Run drives the simulation to quiescence.
func (m *Machine) Run() error { return m.E.Run() }

// Shutdown reaps all simulation processes; call once per machine when
// done (e.g. deferred in tests).
func (m *Machine) Shutdown() { m.E.Shutdown() }

// Describe renders the Table III-style configuration summary.
func (m *Machine) Describe() string {
	g, c := m.Cfg.GPU, m.Cfg.CPU
	return fmt.Sprintf(
		"CPU: %d cores @ %d MHz | GPU: %d CUs @ %d MHz, SIMD-%d, %d wavefronts/CU (%d HW work-items) | "+
			"syscall area: %d KiB | DRAM: %.1f GB/s | GPU L2: %d lines | SSD: %d ch × %.0f MB/s | workers: %d",
		c.Cores, c.ClockMHz, g.CUs, g.ClockMHz, g.SIMDWidth, g.WavefrontsPerCU,
		m.GPU.HWWorkItems(), m.Genesys.AreaBytes()/1024, m.Cfg.Mem.DRAMBandwidth,
		m.Cfg.Mem.L2Lines, m.Cfg.SSD.Channels, m.Cfg.SSD.ChannelBandwidth*1000,
		m.Cfg.Kernel.Workers)
}
