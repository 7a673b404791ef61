// Package oskern models the Linux kernel pieces GENESYS runs on: process
// task structs (fd table, address space, signal state), the kernel
// work-queue with its pool of OS worker threads, interrupt-to-task
// hand-off costs, context switching into a target process, and the /dev,
// /proc and /sys namespaces.
//
// The paper's key kernel observation (§IV, §VI) is preserved: GPU threads
// have NO representation in the kernel. GPU system calls execute in OS
// worker threads that either switch to the context of the CPU process
// that launched the kernel, or carry explicit context — which is exactly
// how Process and Workqueue interact here.
package oskern

import (
	"fmt"

	"genesys/internal/cpu"
	"genesys/internal/fault"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/netstack"
	"genesys/internal/obs"
	"genesys/internal/sig"
	"genesys/internal/sim"
	"genesys/internal/vmm"
)

// Config holds kernel cost parameters.
type Config struct {
	Workers int // initial OS worker threads servicing the work-queue
	// MaxWorkers caps the pool. Like Linux's concurrency-managed
	// workqueues, the kernel spawns extra workers when all existing ones
	// are busy or blocked (e.g. in a disk read) and work is pending —
	// which is what lets a burst of blocking GPU preads reach high I/O
	// queue depths (Figure 14).
	MaxWorkers      int
	TaskDispatch    sim.Time // enqueue + schedule overhead per task
	ContextSwitch   sim.Time // switching a worker into a process context
	SyscallSoftware sim.Time // base in-kernel cost of one system call
	FDLimit         int
}

// stallTimeout is how long a picked work-queue task may sit without
// starting execution before the stall detector re-dispatches it to
// another worker. Detection only arms while fault injection is active.
const stallTimeout = 750 * sim.Microsecond

// DefaultConfig starts the pool at cores-1 (one core stays free for the
// application / GPU runtime) with latencies in the ranges the paper's
// platform exhibits.
func DefaultConfig() Config {
	return Config{
		Workers:         3,
		MaxWorkers:      64,
		TaskDispatch:    8 * sim.Microsecond,
		ContextSwitch:   3 * sim.Microsecond,
		SyscallSoftware: sim.Micros(1.5),
		FDLimit:         1024,
	}
}

// Task is one unit of deferred kernel work.
type Task struct {
	Name string
	Run  func(p *sim.Proc)
}

// OS is the simulated kernel.
type OS struct {
	E    *sim.Engine
	CPU  *cpu.CPU
	VFS  *fs.VFS
	Net  *netstack.Stack
	Pool *vmm.Pool

	// GPU, when set (AttachGPU), lets getrusage report GPU resource
	// usage — the adaptation §IV suggests for accelerator-aware kernels.
	GPU *gpu.Device

	// Console is the terminal backing fds 0-2 of every process.
	Console *fs.Console

	cfg     Config
	vmCfg   vmm.Config
	procs   map[int]*Process
	nextPID int
	wq      *sim.Queue[Task]

	// SysfsRoot is /sys/genesys, where subsystems register CtlFiles.
	SysfsRoot *fs.Dir

	workers     int // workers spawned
	idleWorkers int // workers blocked on an empty queue

	// workerProc maps a worker's sim process to its worker ID, so layers
	// running inside a worker (GENESYS batch processing) can attribute
	// their work to a trace-viewer thread.
	workerProc map[*sim.Proc]int

	// events, when enabled, receives one span per executed work-queue
	// task (one trace-viewer thread per worker).
	events *obs.EventLog

	// busyWorkers integrates how many workers are executing a task at
	// each virtual instant.
	busyWorkers *obs.UtilTrack

	// Inject, when active, feeds the kernel's injection points (worker
	// stalls here; irq drops and slot skips are consumed by the GENESYS
	// layer, which names them for this subsystem). Dispatch also reads it
	// for transient-errno injection.
	Inject *fault.Injector

	TasksRun int64
	Syscalls int64
	// Redispatches counts stalled tasks the detector handed to another
	// worker; OrphansReaped counts stalled originals that woke to find
	// their task already executed.
	Redispatches  int64
	OrphansReaped int64
}

// New assembles a kernel over the given substrates and starts its worker
// pool. vmCfg parameterizes the address spaces of processes it creates.
// Workers record their tasks in events and their occupancy in busy, and
// draw worker stalls from in.
func New(e *sim.Engine, c *cpu.CPU, v *fs.VFS, net *netstack.Stack,
	pool *vmm.Pool, vmCfg vmm.Config, cfg Config,
	events *obs.EventLog, busy *obs.UtilTrack, in *fault.Injector) *OS {
	if cfg.Workers <= 0 {
		panic("oskern: need at least one worker")
	}
	os := &OS{
		E:           e,
		CPU:         c,
		VFS:         v,
		Net:         net,
		Pool:        pool,
		cfg:         cfg,
		vmCfg:       vmCfg,
		procs:       make(map[int]*Process),
		nextPID:     1,
		wq:          sim.NewQueue[Task](e, "kernel-workqueue", 0),
		workerProc:  make(map[*sim.Proc]int),
		events:      events,
		busyWorkers: busy,
		Inject:      in,
	}
	if os.cfg.MaxWorkers < os.cfg.Workers {
		os.cfg.MaxWorkers = os.cfg.Workers
	}
	os.setupNamespaces()
	for i := 0; i < cfg.Workers; i++ {
		os.spawnWorker()
	}
	return os
}

func (o *OS) spawnWorker() {
	id := o.workers
	o.workers++
	p := o.E.SpawnDaemon(fmt.Sprintf("kworker/%d", id), func(p *sim.Proc) {
		o.worker(p, id)
	})
	o.workerProc[p] = id
	o.events.NameThread(obs.PIDKernel, id, fmt.Sprintf("kworker/%d", id))
}

// WorkerID returns the pool index of the worker running as sim process
// p, or -1 when p is not a worker.
func (o *OS) WorkerID(p *sim.Proc) int {
	if id, ok := o.workerProc[p]; ok {
		return id
	}
	return -1
}

// Workers returns the current worker-pool size.
func (o *OS) Workers() int { return o.workers }

// IdleWorkers returns how many pool workers are blocked on an empty
// workqueue right now — the live-top view's busy/idle split.
func (o *OS) IdleWorkers() int { return o.idleWorkers }

// Config returns the kernel cost parameters.
func (o *OS) Config() Config { return o.cfg }

// setupNamespaces creates /dev, /proc and /sys.
func (o *OS) setupNamespaces() {
	dev, _ := o.VFS.MkdirAll("/dev", nil)
	o.Console = fs.NewConsole()
	dev.Add("console", o.Console)
	dev.Add("null", fs.NullDev{})
	dev.Add("zero", fs.ZeroDev{})

	proc, _ := o.VFS.MkdirAll("/proc", nil)
	proc.Add("meminfo", &fs.GenFile{Gen: func() []byte {
		ps := o.vmCfg.PageSize
		return []byte(fmt.Sprintf("MemTotal: %8d kB\nMemFree:  %8d kB\n",
			o.Pool.Total*ps/1024, o.Pool.Free()*ps/1024))
	}})

	sys, _ := o.VFS.MkdirAll("/sys/genesys", nil)
	o.SysfsRoot = sys
}

// AttachGPU registers the GPU so kernel services (e.g. getrusage with
// RUSAGE_GPU) can report accelerator usage.
func (o *OS) AttachGPU(d *gpu.Device) { o.GPU = d }

// AddDevice registers a device node under /dev.
func (o *OS) AddDevice(name string, n fs.Node) {
	d, err := o.VFS.ResolveDir("/dev")
	if err != nil {
		panic("oskern: /dev missing")
	}
	d.Add(name, n)
}

// taskState tracks one picked task for the stall detector. The sim is
// cooperative, so claim's check-and-set is race-free: whichever of the
// original worker and the re-dispatch copy claims first runs the task,
// the other skips it — a task never executes twice.
type taskState struct {
	executed     bool
	redispatched bool
}

func (st *taskState) claim() bool {
	if st.executed {
		return false
	}
	st.executed = true
	return true
}

// watchTask arms the stall detector for a picked task: if the task has
// not started executing within stallTimeout (its worker is parked by an
// injected stall), a fresh copy is re-dispatched to the pool. Returns
// nil — arming nothing — when fault injection is inactive, keeping the
// default path free of timer events.
func (o *OS) watchTask(t Task) *taskState {
	if !o.Inject.Active() {
		return nil
	}
	st := &taskState{}
	o.E.CallAfter(stallTimeout, func() {
		if st.executed || st.redispatched {
			return
		}
		st.redispatched = true
		o.Redispatches++
		o.Inject.NoteRecovered()
		o.Enqueue(Task{Name: t.Name + ":redispatch", Run: func(p *sim.Proc) {
			if st.claim() {
				t.Run(p)
			}
		}})
	})
	return st
}

// worker is one OS worker thread: it pulls tasks and runs them on a core
// at kernel priority.
func (o *OS) worker(p *sim.Proc, id int) {
	for {
		o.idleWorkers++
		t := o.wq.Get(p)
		o.idleWorkers--
		start := o.E.Now()
		st := o.watchTask(t)
		o.CPU.Exec(p, o.cfg.TaskDispatch, cpu.PrioKernel)
		if st != nil {
			if r, ok := o.Inject.Fire(fault.WorkerStall); ok {
				stall := sim.Time(r.Param)
				if stall <= 0 {
					stall = 2 * sim.Millisecond
				}
				p.Sleep(stall) // the worker is parked mid-dispatch
			}
			if !st.claim() {
				// The stall detector re-dispatched this task while we
				// were parked and the copy already ran it.
				o.OrphansReaped++
				continue
			}
		}
		o.TasksRun++
		o.busyWorkers.Add(o.E.Now(), 1)
		t.Run(p)
		o.busyWorkers.Add(o.E.Now(), -1)
		o.events.Span("kernel", t.Name, obs.PIDKernel, id, start, o.E.Now())
	}
}

// Enqueue adds a task to the kernel work-queue, growing the worker pool
// (up to MaxWorkers) when every existing worker is busy or blocked —
// the concurrency-managed-workqueue behaviour.
func (o *OS) Enqueue(t Task) {
	o.wq.TryPut(t) // unbounded queue: cannot fail
	if o.idleWorkers == 0 && o.workers < o.cfg.MaxWorkers {
		o.spawnWorker()
	}
}

// QueueDepth returns the number of tasks awaiting a worker.
func (o *OS) QueueDepth() int { return o.wq.Len() }

// Process is a CPU process: the context GPU system calls borrow.
type Process struct {
	PID  int
	Name string
	FDs  *fs.FDTable
	MM   *vmm.AddressSpace
	Sig  *sig.State
	// CWD is the working directory chdir(2) manipulates.
	CWD string

	os *OS
}

// NewProcess creates a process with stdio wired to the console, a fresh
// address space over the machine pool, and empty signal state.
func (o *OS) NewProcess(name string) *Process {
	pr := &Process{
		PID:  o.nextPID,
		Name: name,
		FDs:  fs.NewFDTable(o.cfg.FDLimit),
		MM:   vmm.New(o.E, o.vmCfg, o.Pool),
		Sig:  sig.NewState(o.E),
		CWD:  "/",
		os:   o,
	}
	o.nextPID++
	o.procs[pr.PID] = pr

	for fd := 0; fd <= 2; fd++ {
		_ = pr.FDs.InstallAt(fd, fs.NewFile(o.Console, fs.O_RDWR, "/dev/console"))
	}

	procDir, _ := o.VFS.MkdirAll(fmt.Sprintf("/proc/%d", pr.PID), nil)
	procDir.Add("status", &fs.GenFile{Gen: func() []byte {
		return []byte(fmt.Sprintf("Name:\t%s\nPid:\t%d\nVmRSS:\t%d kB\nVmHWM:\t%d kB\n",
			pr.Name, pr.PID, pr.MM.RSSBytes()/1024, pr.MM.MaxRSSBytes()/1024))
	}})
	return pr
}

// Lookup returns the process with the given PID.
func (o *OS) Lookup(pid int) (*Process, bool) {
	pr, ok := o.procs[pid]
	return pr, ok
}

// OS returns the kernel the process belongs to.
func (pr *Process) OS() *OS { return pr.os }

// SwitchTo charges the cost of switching a worker thread into this
// process's context (§VI: "switches to the context of the original CPU
// program that invoked the GPU kernel").
func (pr *Process) SwitchTo(p *sim.Proc) {
	p.Sleep(pr.os.cfg.ContextSwitch)
}

// Spawn starts a thread of this process as a simulation process.
func (pr *Process) Spawn(name string, fn func(p *sim.Proc)) *sim.Proc {
	return pr.os.E.Spawn(fmt.Sprintf("%s[%d]/%s", pr.Name, pr.PID, name), fn)
}
