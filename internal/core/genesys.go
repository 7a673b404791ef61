// Package core implements GENESYS, the paper's contribution: a generic
// POSIX system call interface for GPU programs.
//
// Mechanism (paper §III, §VI):
//
//  1. The GPU work-item claims its slot in a preallocated shared-memory
//     syscall area (one 64-byte cache-line slot per active hardware
//     work-item — 1.25 MiB on the default 20480-work-item GPU) using a
//     compare-and-swap, populates it with the call number, arguments and
//     a blocking bit, and flips it to ready with an atomic swap. Atomics
//     force L2 lookups, sidestepping the GPU's non-coherent L1.
//  2. The wavefront interrupts the CPU (scalar s_sendmsg), carrying its
//     hardware wavefront ID.
//  3. The CPU interrupt handler — optionally after coalescing multiple
//     interrupts within a configurable window — enqueues a kernel task.
//  4. An OS worker thread scans the 64 slots of each wavefront in the
//     batch, switches ready→processing, borrows the context of the CPU
//     process that launched the kernel, and executes the call.
//  5. Results are written back to the slot; blocking slots become
//     finished (the waiting work-item polls or is resumed from halt),
//     non-blocking slots go straight back to free.
//
// The package exposes the paper's full invocation design space:
// work-item / work-group / kernel granularity, strong / relaxed ordering
// with producer / consumer barrier elision, blocking / non-blocking
// completion, and polling / halt-resume wait modes.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"genesys/internal/cpu"
	"genesys/internal/errno"
	"genesys/internal/fault"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/mem"
	"genesys/internal/obs"
	"genesys/internal/oskern"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// SlotState is the lifecycle of one syscall-area slot (paper Figure 6).
type SlotState uint8

const (
	SlotFree SlotState = iota
	SlotPopulating
	SlotReady
	SlotProcessing
	SlotFinished
)

func (s SlotState) String() string {
	switch s {
	case SlotFree:
		return "free"
	case SlotPopulating:
		return "populating"
	case SlotReady:
		return "ready"
	case SlotProcessing:
		return "processing"
	case SlotFinished:
		return "finished"
	}
	return "invalid"
}

// Slot is one 64-byte syscall-area entry: call number, up to six
// arguments (re-purposed for the return value), and padding to a full
// cache line to avoid false sharing (Figure 5). The entry's request
// state, blocking bit and generation live apart from it, in Genesys.hot.
type Slot struct {
	// ID is the slot's hardware work-item index in the syscall area.
	ID  int
	Req syscalls.Request

	owner *oskern.Process
	trace callTrace
}

// slotHot is the part of a syscall-area entry that pollers and batch
// scans read on every pass: the request state, the blocking bit and the
// slot generation. Genesys keeps it in one 16-byte-per-slot array
// indexed by slot ID, apart from the 224-byte Slot, so a scan of one
// wavefront's 64 slots touches 16 host cache lines instead of 250 — the
// paper's one-slot-per-line argument applied to the simulator's own
// memory. It is the only copy of these fields.
type slotHot struct {
	state    SlotState
	blocking bool
	// next links the slot into its poll waiter's list of slots not yet
	// read finished (-1 ends the list). Only that waiter reads it, and
	// only while it polls the slot; it fills what would be padding.
	next int32
	// gen is the slot generation of the owning wavefront tenancy
	// (gpu.Wavefront.Gen), stamped at populate time. The hardware
	// recycles wavefront slots the moment a wavefront retires, so every
	// CPU-side actor that reaches a syscall-area slot through a hardware
	// wavefront ID (batch scans, retransmit watchdogs, doorbells) must
	// match gen before touching it — a raw hardware ID may already name
	// a successor tenant.
	gen uint64
}

// WaitMode selects how a blocking work-item awaits completion (§V-C).
type WaitMode int

const (
	// WaitPoll spins on the slot state with atomic loads; cheap while the
	// polled working set fits the GPU L2, ruinous beyond it (Figure 9).
	WaitPoll WaitMode = iota
	// WaitHaltResume halts the wavefront, relinquishing SIMD resources
	// until the CPU's doorbell; pays the resume latency.
	WaitHaltResume
)

func (m WaitMode) String() string {
	if m == WaitHaltResume {
		return "halt-resume"
	}
	return "polling"
}

// Ordering is the system call ordering semantics (§V-A).
type Ordering int

const (
	// Strong: all work-items in the invocation scope complete prior
	// instructions before the call, and none proceed past it until the
	// call returns (barriers on both sides).
	Strong Ordering = iota
	// Relaxed: one of the two barriers is elided according to Kind.
	Relaxed
)

func (o Ordering) String() string {
	if o == Relaxed {
		return "relaxed"
	}
	return "strong"
}

// Kind classifies the data-flow role of a call for relaxed ordering:
// consumers of GPU-produced data (write, pwrite, sendto) keep only the
// pre-call barrier; producers of data the GPU will consume (read, pread,
// recvfrom) keep only the post-call barrier.
type Kind int

const (
	Consumer Kind = iota
	Producer
)

// Options selects the invocation strategy for one call.
type Options struct {
	Blocking bool
	Wait     WaitMode
	Ordering Ordering
	Kind     Kind
}

// Result is the outcome of a completed (blocking) system call.
type Result struct {
	Ret     int64
	Err     errno.Errno
	OutArgs [2]uint64
}

// Ok reports whether the call succeeded.
func (r Result) Ok() bool { return r.Err == errno.OK }

// ErrKernelStrongOrdering is returned when strong ordering is requested
// at kernel invocation granularity: with non-preemptible work-groups the
// required kernel-wide barrier deadlocks whenever the grid exceeds
// residency, so GENESYS rejects the combination outright (§V-A).
var ErrKernelStrongOrdering = errors.New(
	"genesys: strong ordering at kernel granularity would deadlock the GPU")

// Config holds GENESYS tunables. CoalesceWindow and CoalesceMax are also
// exposed at /sys/genesys/{coalesce_window_us,coalesce_max} (§VI).
type Config struct {
	// CoalesceWindow is how long the interrupt handler waits to batch
	// further system call interrupts; 0 disables coalescing.
	CoalesceWindow sim.Time
	// CoalesceMax is the maximum number of wavefront interrupts handled
	// as a single kernel task.
	CoalesceMax int
	// PollInterval is the delay between polling loads of a slot.
	PollInterval sim.Time

	// PackedSlots is an ablation switch: instead of the paper's design
	// of one 64-byte slot per cache line (Figure 5's padding), pack four
	// 16-byte slots per line. Atomics then false-share: every operation
	// on a slot whose line holds other in-flight slots pays extra
	// coherence round trips. Used to quantify why the paper pads.
	PackedSlots bool

	// RetransmitTimeout is how long ready slots of a wavefront may sit
	// unprocessed before the doorbell interrupt is retransmitted; the
	// watchdog only arms while fault injection is active. 0 selects a
	// default.
	RetransmitTimeout sim.Time
	// MaxRetransmits bounds redelivery attempts per invocation; once
	// exhausted the stale slots complete with EINTR so a lossy interrupt
	// line degrades to a well-formed errno instead of a hang. 0 selects
	// a default.
	MaxRetransmits int
}

// DefaultConfig returns coalescing off and a 2 us poll interval.
func DefaultConfig() Config {
	return Config{CoalesceWindow: 0, CoalesceMax: 1, PollInterval: 2 * sim.Microsecond}
}

// Genesys is the installed GPU system call layer of one machine.
type Genesys struct {
	E   *sim.Engine
	GPU *gpu.Device
	OS  *oskern.OS
	Mem *mem.System
	CPU *cpu.CPU

	cfg Config
	// slots is the host copy of the syscall area, one chunk of simd
	// entries per hardware wavefront, allocated when one of its slots is
	// first claimed (g.slot is the only way in). Most machines touch a
	// few dozen of their hundreds of wavefronts, so the untouched chunks
	// cost one nil slice header each.
	slots [][]Slot
	simd  int
	hot   []slotHot       // hot fields of every slot, dense: scans read it
	proc  *oskern.Process // default context GPU syscalls borrow

	// kernelProcs maps kernels to the processes that launched them, for
	// machines running several GPU applications at once.
	kernelProcs map[*gpu.KernelRun]*oskern.Process

	outstanding int
	drainCond   *sim.Cond

	// ctxs holds idle dispatch contexts. Batches on different workers
	// overlap in virtual time, so each takes its own from here and
	// returns it when done; after warm-up, batches allocate none.
	ctxs []*syscalls.Ctx

	// interrupt coalescing state
	pendingWaves []doorbell
	pendingSet   map[doorbell]bool
	coalesceTmr  *sim.Timer

	// orphans is the reaper's ledger: syscall-area slot ID → generation,
	// for calls still in flight when their wavefront retired. Orphaned
	// slots keep completing through the normal batch/watchdog paths in
	// their owner's context (Slot.owner); the ledger exists so retirement
	// is an explicit hand-off rather than silent aliasing, and so tests
	// and /sys/genesys/stats can see adoption balance out.
	orphans map[int]uint64

	Invocations   int64
	Batches       int64
	BatchedWaves  int64
	SlotConflicts int64

	// OrphansAdopted counts in-flight slots handed to the reaper at
	// wavefront retirement; OrphansCompleted counts those that later
	// finished (or were EINTR-aborted by the watchdog) and freed.
	OrphansAdopted   int64
	OrphansCompleted int64

	// IRQRetransmits counts doorbell redeliveries by the watchdog;
	// Retries counts syscall restarts (kernel-side here, user-side via
	// gclib's restartable layer, which shares this counter).
	IRQRetransmits int64
	Retries        int64

	inject *fault.Injector
	retx   map[doorbell]*retxState // armed retransmit watchdogs, by (hw wave, generation)

	tracer    *Tracer
	events    *obs.EventLog
	flight    *obs.Flight // always-on anomaly detectors
	rec       Recorder    // syscall stream tap for record/replay (possibly nil)
	nextTrace uint64      // last assigned causal trace ID

	// pwFree recycles pollWaiters (the callback-driven slot-poll state
	// machines) so steady-state polling allocates nothing.
	pwFree []*pollWaiter
}

// SlotStateCounts returns how many syscall-area slots currently sit in
// each lifecycle state — the in-flight-by-phase row of the live top
// view.
func (g *Genesys) SlotStateCounts() map[SlotState]int {
	out := make(map[SlotState]int, 5)
	for i := range g.hot {
		out[g.hot[i].state]++
	}
	return out
}

// doorbell names one tenancy of a hardware wavefront slot: the slot ID
// the hardware reports and the generation of the wavefront that occupied
// it when the doorbell was rung. Keying CPU-side state on the pair —
// instead of the raw slot, which the GPU recycles at retirement — is
// what keeps retransmit aborts, batch scans and resume doorbells from
// being misdelivered to a successor wavefront.
type doorbell struct {
	hw  int
	gen uint64
}

// retxState is one invocation's retransmit watchdog (keyed by doorbell,
// so a watchdog armed for one tenancy can never act on the next).
type retxState struct {
	attempts int
	sent     bool // a retransmission happened since the last clean check
}

// New installs GENESYS on a machine: it sizes the syscall area to the
// GPU's active hardware work-items, hooks the GPU→CPU interrupt line and
// registers the sysfs tunables. Completed calls are emitted as
// flow-linked per-phase spans into events (GPU wave → IRQ → workqueue →
// worker → completing slot) and feed the flight recorder's
// latency-outlier and watchdog-exhaustion detectors; in supplies the
// pipeline faults consumed here (dropped doorbells, slot-scan skips).
func New(e *sim.Engine, dev *gpu.Device, os *oskern.OS, m *mem.System,
	c *cpu.CPU, cfg Config, events *obs.EventLog, flight *obs.Flight,
	in *fault.Injector) *Genesys {
	if cfg.CoalesceMax < 1 {
		cfg.CoalesceMax = 1
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * sim.Microsecond
	}
	g := &Genesys{
		E:           e,
		GPU:         dev,
		OS:          os,
		Mem:         m,
		CPU:         c,
		cfg:         cfg,
		slots:       make([][]Slot, dev.HWWavefronts()),
		simd:        dev.Config().SIMDWidth,
		hot:         make([]slotHot, dev.HWWorkItems()),
		drainCond:   sim.NewCond(e),
		pendingSet:  make(map[doorbell]bool),
		kernelProcs: make(map[*gpu.KernelRun]*oskern.Process),
		retx:        make(map[doorbell]*retxState),
		orphans:     make(map[int]uint64),
		inject:      in,
		tracer:      newTracer(),
		events:      events,
		flight:      flight,
	}
	if g.cfg.RetransmitTimeout <= 0 {
		g.cfg.RetransmitTimeout = 500 * sim.Microsecond
	}
	if g.cfg.MaxRetransmits <= 0 {
		g.cfg.MaxRetransmits = 32
	}
	dev.SetIRQHandler(g.handleIRQ)
	dev.SetRetireHook(g.adoptOrphans)
	g.registerSysfs()
	return g
}

// AreaBytes returns the syscall area size (64 bytes per slot).
func (g *Genesys) AreaBytes() int { return len(g.hot) * 64 }

// slot returns syscall-area entry id, allocating the chunk of its
// hardware wavefront the first time any of the chunk's slots is reached.
func (g *Genesys) slot(id int) *Slot {
	w, lane := id/g.simd, id%g.simd
	c := g.slots[w]
	if c == nil {
		c = make([]Slot, g.simd)
		for i := range c {
			c[i].ID = w*g.simd + i
		}
		g.slots[w] = c
	}
	return &c[lane]
}

// Config returns the current tunables.
func (g *Genesys) Config() Config { return g.cfg }

// SetCoalescing adjusts the coalescing knobs (also reachable via sysfs).
func (g *Genesys) SetCoalescing(window sim.Time, max int) {
	if max < 1 {
		max = 1
	}
	g.cfg.CoalesceWindow = window
	g.cfg.CoalesceMax = max
	g.flushIfKnobsSatisfied()
}

// flushIfKnobsSatisfied re-evaluates a parked coalescing batch after a
// knob write: lowering coalesce_max to (or below) the number of pending
// doorbells, or disabling the window outright, would otherwise leave the
// batch waiting on the next IRQ or the old window's timer.
func (g *Genesys) flushIfKnobsSatisfied() {
	if len(g.pendingWaves) == 0 {
		return
	}
	if len(g.pendingWaves) >= g.cfg.CoalesceMax || g.cfg.CoalesceWindow <= 0 {
		g.flushPending()
	}
}

// BindProcess sets the default CPU process whose context GPU system
// calls borrow — the process that launches the GPU kernels. GPU threads
// themselves have no kernel representation (§IV).
func (g *Genesys) BindProcess(pr *oskern.Process) { g.proc = pr }

// Process returns the default bound process.
func (g *Genesys) Process() *oskern.Process { return g.proc }

// BindKernel associates one launched kernel with the process that owns
// it, so machines running several GPU applications dispatch each
// program's system calls in its own context (fd table, address space,
// signal state). Kernels without a binding fall back to the default
// process.
func (g *Genesys) BindKernel(kr *gpu.KernelRun, pr *oskern.Process) {
	g.kernelProcs[kr] = pr
}

// procFor resolves the owning process of a wavefront's kernel.
func (g *Genesys) procFor(w *gpu.Wavefront) *oskern.Process {
	if pr, ok := g.kernelProcs[w.WG.Run]; ok {
		return pr
	}
	return g.proc
}

// Injector returns the machine's fault injector.
func (g *Genesys) Injector() *fault.Injector { return g.inject }

// FaultsActive reports whether a fault plan is armed — the gate gclib's
// restartable layer uses so the default path never retries and stays
// bit-identical to a machine without the fault subsystem.
func (g *Genesys) FaultsActive() bool { return g.inject.Active() }

// SlotState returns the lifecycle state of slot i (for tests and
// debugging).
func (g *Genesys) SlotState(i int) SlotState { return g.hot[i].state }

// Outstanding returns the number of system calls in flight.
func (g *Genesys) Outstanding() int { return g.outstanding }

// Orphans returns the number of in-flight slots whose wavefront has
// retired and which are currently held by the orphan reaper.
func (g *Genesys) Orphans() int { return len(g.orphans) }

func (g *Genesys) registerSysfs() {
	if g.OS.SysfsRoot == nil {
		return
	}
	g.OS.SysfsRoot.Add("coalesce_window_us", &fs.CtlFile{
		Get: func() []byte {
			return []byte(strconv.FormatInt(int64(g.cfg.CoalesceWindow/sim.Microsecond), 10) + "\n")
		},
		Set: func(b []byte) error {
			v, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
			if err != nil || v < 0 {
				return errno.EINVAL
			}
			g.cfg.CoalesceWindow = sim.Time(v) * sim.Microsecond
			g.flushIfKnobsSatisfied()
			return nil
		},
	})
	g.OS.SysfsRoot.Add("coalesce_max", &fs.CtlFile{
		Get: func() []byte {
			return []byte(strconv.Itoa(g.cfg.CoalesceMax) + "\n")
		},
		Set: func(b []byte) error {
			v, err := strconv.Atoi(strings.TrimSpace(string(b)))
			if err != nil || v < 1 {
				return errno.EINVAL
			}
			g.cfg.CoalesceMax = v
			g.flushIfKnobsSatisfied()
			return nil
		},
	})
	g.OS.SysfsRoot.Add("critpath", &fs.GenFile{Gen: func() []byte {
		return []byte(g.tracer.CritPath())
	}})
	g.OS.SysfsRoot.Add("stats", &fs.GenFile{Gen: func() []byte {
		return []byte(fmt.Sprintf(
			"invocations %d\nbatches %d\nbatched_waves %d\nslot_conflicts %d\noutstanding %d\n"+
				"orphans_adopted %d\norphans_completed %d\norphans_live %d\n",
			g.Invocations, g.Batches, g.BatchedWaves,
			g.SlotConflicts, g.outstanding,
			g.OrphansAdopted, g.OrphansCompleted, len(g.orphans)))
	}})
}

// --- GPU side -------------------------------------------------------------

// falseSharingPenalty returns the extra coherence cost of touching slot
// idx when slots are packed four to a cache line: each other in-flight
// slot on the line forces a line ping-pong (ablation; zero in the
// paper's padded layout).
func (g *Genesys) falseSharingPenalty(idx int) sim.Time {
	if !g.cfg.PackedSlots {
		return 0
	}
	base := idx &^ 3
	var n sim.Time
	for i := base; i < base+4 && i < len(g.hot); i++ {
		if i != idx && g.hot[i].state != SlotFree {
			n++
		}
	}
	return n * 4 * g.Mem.Config().L2HitTime
}

// populateSlot claims and fills the slot of (wavefront, lane); it charges
// the cmp-swap claim, the line store, and the swap to ready.
func (g *Genesys) populateSlot(w *gpu.Wavefront, lane int, req syscalls.Request, blocking bool) *Slot {
	id := w.HWWorkItemID(lane)
	s, h := g.slot(id), &g.hot[id]
	claimStart := g.E.Now()
	for {
		g.Mem.GPUAtomic(w.P, mem.OpCmpSwap, 0)
		if pen := g.falseSharingPenalty(id); pen > 0 {
			w.P.Sleep(pen)
		}
		if h.state == SlotFree {
			h.state = SlotPopulating
			break
		}
		// A previous (non-blocking) call on this work-item is still being
		// processed: invocation is delayed until the slot frees (§VI).
		// While spinning, the slot still belongs to that call — possibly
		// an orphan of a retired predecessor tenancy — so nothing (owner,
		// generation, trace) may be written until the claim wins, or the
		// in-flight call would complete against the new tenant's identity.
		g.SlotConflicts++
		w.P.Sleep(g.cfg.PollInterval)
	}
	g.nextTrace++
	s.trace = callTrace{
		id:     g.nextTrace,
		nr:     req.NR,
		wave:   w.HWSlot,
		gen:    w.Gen,
		worker: -1,
		claim:  claimStart,
	}
	s.owner = g.procFor(w)
	h.gen = w.Gen
	req.Ret, req.Err = 0, errno.OK
	req.Trace = s.trace.id
	s.Req = req
	h.blocking = blocking
	g.Mem.GPUWriteLine(w.P)
	g.Mem.GPUAtomic(w.P, mem.OpSwap, 0)
	h.state = SlotReady
	s.trace.ready = g.E.Now()
	g.Invocations++
	g.outstanding++
	g.noteReady(s)
	return s
}

// pollWaiter drives one wavefront's WaitPoll loop as engine-loop
// callbacks instead of process wake-ups. The classic loop costs two
// process resumptions per polling load (the atomic-load latency sleep
// and the poll-interval sleep); at fleet scale that handoff traffic
// dominates host wall clock. The state
// machine below replays the *identical* control flow — every sleep
// becomes a callback scheduled at the same instant, in the same order,
// performing the same memory-model mutations and random draws — so the
// engine's event sequence is bit-for-bit unchanged, but the process
// parks once and is resumed inline (sim.Engine.ResumeInline) by the tick
// that observes completion: an N-interval wait costs N inline callbacks
// and a single process switch instead of ~2N switches.
//
// The waiter keeps its own list of the slots it has not yet read
// finished, linked through slotHot.next, and drops a slot the first time
// a read finds it finished. That is exact: a finished slot costs the
// scan no virtual time (the classic loop skips it without a load) and
// stays finished until awaitSlots harvests it, so every later round
// would skip it too.
//
// phase encodes where in the loop body the next callback resumes:
//
//	phaseScan     — arriving at slot cur (top of the inner loop body)
//	phaseLoadDone — the polling load completed; settle L2 hit/miss
//	phaseSettled  — load fully charged; apply the false-sharing penalty
//	phaseChecked  — penalty charged; recheck the slot and advance
type pollWaiter struct {
	g     *Genesys
	w     *gpu.Wavefront
	head  int32 // first slot not yet read finished, -1 when none is left
	cur   int32 // slot the scan is at, -1 at the end of a round
	prev  int32 // slot before cur in the list, -1 when cur is the head
	phase int
	fn    func() // the tick closure, built once per waiter and reused
}

const (
	phaseScan = iota
	phaseLoadDone
	phaseSettled
	phaseChecked
)

// step runs the poll loop from the current position to its next sleep
// point, returning the sleep delay, or finished=true when every slot is
// done. A zero delay re-enters step inline, exactly like the zero-length
// p.Sleep it replaces.
func (pw *pollWaiter) step() (d sim.Time, finished bool) {
	g := pw.g
	for {
		if pw.cur < 0 {
			// Every slot still listed was read unfinished this round.
			if pw.head < 0 {
				return 0, true
			}
			pw.cur, pw.prev = pw.head, -1
			return g.cfg.PollInterval, false // w.P.Sleep(PollInterval)
		}
		h := &g.hot[pw.cur]
		switch pw.phase {
		case phaseScan:
			if h.state != SlotFinished {
				pw.phase = phaseLoadDone
				if d := g.Mem.AtomicStart(mem.OpAtomicLoad); d > 0 {
					return d, false // the atomic-load latency sleep
				}
				continue
			}
			pw.unlink(h)
		case phaseLoadDone:
			pw.phase = phaseSettled
			if d := g.Mem.Settle(g.Mem.PolledLines()); d > 0 {
				return d, false // DRAM spill on an L2 miss
			}
			continue
		case phaseSettled:
			pw.phase = phaseChecked
			if pen := g.falseSharingPenalty(int(pw.cur)); pen > 0 {
				return pen, false // w.P.Sleep(pen)
			}
			continue
		case phaseChecked:
			pw.phase = phaseScan
			if h.state == SlotFinished {
				pw.unlink(h)
			} else {
				pw.prev = pw.cur
			}
		}
		pw.cur = h.next
	}
}

// unlink drops slot cur, whose hot state is h, from the waiter's list.
func (pw *pollWaiter) unlink(h *slotHot) {
	if pw.prev < 0 {
		pw.head = h.next
	} else {
		pw.g.hot[pw.prev].next = h.next
	}
}

// pollWait blocks w's process until every slot is finished, event-for-
// event identical to the classic polling loop (see pollWaiter).
func (g *Genesys) pollWait(w *gpu.Wavefront, slots []*Slot) {
	var pw *pollWaiter
	if n := len(g.pwFree); n > 0 {
		pw = g.pwFree[n-1]
		g.pwFree = g.pwFree[:n-1]
	} else {
		pw = &pollWaiter{}
		pw.fn = func() {
			d, finished := pw.step()
			if finished {
				pw.g.E.ResumeInline(pw.w.P)
				return
			}
			pw.g.E.CallAfter(d, pw.fn)
		}
	}
	pw.g, pw.w = g, w
	pw.head = -1
	for i := len(slots) - 1; i >= 0; i-- {
		id := slots[i].ID
		g.hot[id].next = pw.head
		pw.head = int32(id)
	}
	pw.cur, pw.prev, pw.phase = pw.head, -1, phaseScan
	// The first stretch — up to the first sleep — runs inline in process
	// context, just as the classic loop's did.
	d, finished := pw.step()
	if !finished {
		g.E.CallAfter(d, pw.fn)
		w.P.Park("syscall poll")
	}
	pw.w = nil
	g.pwFree = append(g.pwFree, pw)
}

// awaitSlots waits (per mode) until every given blocking slot reaches
// finished, then harvests the slots' results into out, which is as long
// as slots, and frees the slots.
func (g *Genesys) awaitSlots(w *gpu.Wavefront, slots []*Slot, out []Result, mode WaitMode) {
	switch mode {
	case WaitHaltResume:
		for !g.allFinished(slots) {
			w.Halt()
		}
	default: // WaitPoll
		g.Mem.AddPolledLines(len(slots))
		w.BeginPoll()
		defer w.EndPoll()
		g.pollWait(w, slots)
		g.Mem.AddPolledLines(-len(slots))
	}
	for i, s := range slots {
		out[i] = Result{Ret: s.Req.Ret, Err: s.Req.Err, OutArgs: s.Req.OutArgs}
		g.Mem.GPUAtomic(w.P, mem.OpSwap, 0)
		g.hot[s.ID].state = SlotFree
		g.slotReleased(s)
		s.trace.harvest = g.E.Now()
		g.finishTrace(s)
		g.noteCompleted()
	}
}

func (g *Genesys) allFinished(slots []*Slot) bool {
	for _, s := range slots {
		if g.hot[s.ID].state != SlotFinished {
			return false
		}
	}
	return true
}

func (g *Genesys) noteCompleted() {
	g.outstanding--
	if g.outstanding == 0 {
		g.drainCond.Broadcast()
	}
}

// adoptOrphans is the GPU's retirement hook (one call per retiring
// wavefront, before its hardware slot re-enters the free list): any of
// the wave's syscall-area slots still in flight — non-blocking calls
// whose wavefront finished without waiting, exactly the §IX case Drain
// exists for — are handed to the orphan reaper. Orphaned slots keep
// their generation and owner, so the batch or watchdog that eventually
// completes them executes in the original process's context and can
// never be confused with the slot's next tenant.
func (g *Genesys) adoptOrphans(hw int, gen uint64) {
	base := hw * g.simd
	for lane := 0; lane < g.simd; lane++ {
		id := base + lane
		if h := g.hot[id]; h.state == SlotFree || h.gen != gen {
			continue
		}
		g.orphans[id] = gen
		g.OrphansAdopted++
		if g.events.Enabled() {
			g.events.Instant("genesys", "orphan-adopted", obs.PIDSyscalls, id, g.E.Now())
		}
	}
}

// slotReleased retires the reaper's claim on a slot transitioning back
// to free (called on every free transition; a no-op for non-orphans).
func (g *Genesys) slotReleased(s *Slot) {
	if gen, ok := g.orphans[s.ID]; ok && gen == g.hot[s.ID].gen {
		delete(g.orphans, s.ID)
		g.OrphansCompleted++
	}
}

// Invoke issues one system call from lane 0 of the calling wavefront —
// the primitive underlying work-group and kernel granularity invocation.
// Blocking calls return the Result; non-blocking calls return immediately
// with a zero Result.
func (g *Genesys) Invoke(w *gpu.Wavefront, req syscalls.Request, o Options) Result {
	s := g.populateSlot(w, 0, req, o.Blocking)
	w.Interrupt()
	g.armRetransmit(w.HWSlot, w.Gen)
	if !o.Blocking {
		return Result{}
	}
	one, r := [1]*Slot{s}, [1]Result{}
	g.awaitSlots(w, one[:], r[:], o.Wait)
	return r[0]
}

// InvokeEach issues one system call per active lane of the wavefront —
// work-item invocation granularity. The mk callback returns each lane's
// request by value, with ok=false to skip the lane. Per the hardware, the
// lanes' slots are populated serially but a single wavefront interrupt
// covers all of them, and the CPU scans all 64 slots (§VI). Work-item
// granularity implies strong ordering within the wavefront (§V-A). The
// results are in lane order, one per lane that issued a call.
func (g *Genesys) InvokeEach(w *gpu.Wavefront, mk func(lane int) (req syscalls.Request, ok bool), o Options) []Result {
	slots := make([]*Slot, 0, w.Lanes)
	for lane := 0; lane < w.Lanes; lane++ {
		req, ok := mk(lane)
		if !ok {
			continue
		}
		slots = append(slots, g.populateSlot(w, lane, req, o.Blocking))
	}
	if len(slots) == 0 {
		return nil
	}
	w.Interrupt()
	g.armRetransmit(w.HWSlot, w.Gen)
	results := make([]Result, len(slots))
	if !o.Blocking {
		return results
	}
	g.awaitSlots(w, slots, results, o.Wait)
	return results
}

// InvokeWG issues one system call at work-group granularity: wavefront 0
// invokes on behalf of the group, with barriers placed according to the
// ordering semantics (paper Figures 3 and 4):
//
//	strong:            Bar1 — syscall — Bar2
//	relaxed consumer:  Bar1 — syscall            (write-like)
//	relaxed producer:         syscall — Bar2     (read-like)
//
// Every wavefront of the work-group must call InvokeWG. The leader's
// result is returned with invoker=true; other wavefronts get a zero
// Result and invoker=false.
func (g *Genesys) InvokeWG(w *gpu.Wavefront, req syscalls.Request, o Options) (res Result, invoker bool) {
	if o.Ordering == Strong || o.Kind == Consumer {
		w.Barrier() // Bar1
	}
	if w.IsLeader() {
		res = g.Invoke(w, req, o)
		invoker = true
	}
	if o.Ordering == Strong || o.Kind == Producer {
		w.Barrier() // Bar2
	}
	return res, invoker
}

// InvokeKernel issues one system call at kernel granularity: wavefront 0
// of work-group 0 invokes on behalf of the entire grid. Relaxed ordering
// is mandatory — strong ordering would require a kernel-wide barrier that
// deadlocks non-preemptible work-groups (§V-A) — so Strong is rejected
// with ErrKernelStrongOrdering.
func (g *Genesys) InvokeKernel(w *gpu.Wavefront, req syscalls.Request, o Options) (Result, bool, error) {
	if o.Ordering == Strong {
		return Result{}, false, ErrKernelStrongOrdering
	}
	if !w.IsKernelLeader() {
		return Result{}, false, nil
	}
	return g.Invoke(w, req, o), true, nil
}

// Drain blocks the calling CPU process until every outstanding GPU system
// call has completed — the new host-side call the paper adds so that
// non-blocking GPU system calls cannot outlive their process (§IX).
func (g *Genesys) Drain(p *sim.Proc) {
	for g.outstanding > 0 {
		g.drainCond.Wait(p, "genesys drain")
	}
}

// --- CPU side -------------------------------------------------------------

// armRetransmit starts the interrupt-retransmission watchdog for a
// wavefront tenancy that just rang the doorbell. Inactive injector → no
// timer, so the default path's event schedule is untouched. A fresh
// invocation on an already-watched tenancy resets the attempt budget —
// and the retransmission flag with it, so a redelivery that belonged to
// the previous invocation is never credited to this one as a recovery.
// Keying on (hw, gen) means a watchdog armed for one tenancy can outlive
// its wavefront (orphaned non-blocking calls) without ever being able to
// abort or resume a successor tenant of the recycled hardware slot.
func (g *Genesys) armRetransmit(hw int, gen uint64) {
	if !g.inject.Active() {
		return
	}
	key := doorbell{hw, gen}
	if st, ok := g.retx[key]; ok {
		st.attempts = 0
		st.sent = false
		return
	}
	st := &retxState{}
	g.retx[key] = st
	g.E.CallAfter(g.cfg.RetransmitTimeout, func() { g.checkRetransmit(key, st) })
}

// staleSlots returns the tenancy's slots still sitting in ready —
// evidence its doorbell was lost or its batch scan skipped them. Slots
// of any other generation on the same hardware wavefront belong to a
// different tenant and are invisible here.
func (g *Genesys) staleSlots(db doorbell) []*Slot {
	var stale []*Slot
	for lane := 0; lane < g.simd; lane++ {
		id := db.hw*g.simd + lane
		if h := g.hot[id]; h.state == SlotReady && h.gen == db.gen {
			stale = append(stale, g.slot(id))
		}
	}
	return stale
}

// checkRetransmit is the watchdog tick: ready slots older than the
// timeout get their interrupt redelivered; after MaxRetransmits the
// stale slots complete with EINTR (blocking callers observe it and may
// restart; non-blocking slots free so Drain cannot hang) — an injected
// interrupt loss is either recovered or surfaced, never a silent stall.
// Both the abort and the wake-up doorbell are scoped to the watched
// generation: a successor wavefront on the recycled hardware slot is
// neither EINTR-aborted nor spuriously resumed.
func (g *Genesys) checkRetransmit(db doorbell, st *retxState) {
	stale := g.staleSlots(db)
	if len(stale) == 0 {
		delete(g.retx, db)
		if st.sent {
			g.inject.NoteRecovered()
		}
		return
	}
	if st.attempts >= g.cfg.MaxRetransmits {
		delete(g.retx, db)
		now := g.E.Now()
		for _, s := range stale {
			s.Req.Ret, s.Req.Err = -1, errno.EINTR
			s.trace.picked, s.trace.done = now, now
			s.trace.aborted = true
			g.inject.NoteSurfaced()
			if h := &g.hot[s.ID]; h.blocking {
				h.state = SlotFinished
			} else {
				h.state = SlotFree
				g.slotReleased(s)
				g.finishTrace(s)
				g.noteCompleted()
			}
		}
		g.GPU.Resume(db.hw, db.gen)
		return
	}
	st.attempts++
	st.sent = true
	g.IRQRetransmits++
	g.handleIRQ(db.hw, db.gen)
	g.E.CallAfter(g.cfg.RetransmitTimeout, func() { g.checkRetransmit(db, st) })
}

// handleIRQ receives wavefront interrupts (engine-callback context) and
// applies interrupt coalescing (§V-B): interrupts arriving within
// CoalesceWindow are batched, up to CoalesceMax, into one kernel task.
// The doorbell carries the ringing tenancy's generation; two tenancies
// of the same hardware slot are distinct batch entries, so a coalesced
// doorbell from a retired wavefront can never absorb (and thereby
// starve) its successor's.
func (g *Genesys) handleIRQ(hwWave int, gen uint64) {
	if g.inject.Should(fault.IRQDrop) {
		return // doorbell lost; the retransmit watchdog recovers it
	}
	db := doorbell{hwWave, gen}
	if g.cfg.CoalesceWindow <= 0 || g.cfg.CoalesceMax <= 1 {
		g.enqueueBatch([]doorbell{db})
		return
	}
	if !g.pendingSet[db] {
		g.pendingSet[db] = true
		g.pendingWaves = append(g.pendingWaves, db)
	}
	if len(g.pendingWaves) >= g.cfg.CoalesceMax {
		g.flushPending()
		return
	}
	if g.coalesceTmr == nil {
		g.coalesceTmr = g.E.After(g.cfg.CoalesceWindow, g.flushPending)
	}
}

func (g *Genesys) flushPending() {
	if g.coalesceTmr != nil {
		g.coalesceTmr.Cancel()
		g.coalesceTmr = nil
	}
	if len(g.pendingWaves) == 0 {
		return
	}
	batch := g.pendingWaves
	g.pendingWaves = nil
	g.pendingSet = make(map[doorbell]bool)
	g.enqueueBatch(batch)
}

func (g *Genesys) enqueueBatch(waves []doorbell) {
	g.Batches++
	g.BatchedWaves += int64(len(waves))
	// Stamp unconditionally (stamping is free in virtual time): the
	// tracer must see fully-stamped traces, not a zero enqueued stamp
	// that yields hugely negative delivery-phase samples. Only the
	// ringing generation's slots are stamped — ready slots of another
	// tenancy on the same hardware wavefront ride their own doorbell.
	for _, db := range waves {
		for lane := 0; lane < g.simd; lane++ {
			id := db.hw*g.simd + lane
			if h := g.hot[id]; h.state == SlotReady && h.gen == db.gen {
				g.slot(id).trace.enqueued = g.E.Now()
			}
		}
	}
	g.OS.Enqueue(oskern.Task{
		Name: "genesys-batch",
		Run:  func(p *sim.Proc) { g.processBatch(p, waves) },
	})
}

// processBatch runs in an OS worker thread: it switches into the bound
// process's context once, then scans the 64 slots of every wavefront in
// the batch, executing each ready request. Coalescing trades latency for
// this batching: one task, one context switch, serialized processing.
// Each batch entry only touches slots of the generation that rang its
// doorbell: a slot whose generation differs belongs to another tenancy
// of the recycled hardware wavefront (an orphan of a retired wave, or a
// successor that has its own doorbell in flight) and is left alone. The
// borrowed context always comes from Slot.owner, so an orphaned call
// still completes in the process that issued it, never in the context of
// the slot's new tenant.
func (g *Genesys) processBatch(p *sim.Proc, waves []doorbell) {
	var current *oskern.Process
	var ctx *syscalls.Ctx
	if n := len(g.ctxs); n > 0 {
		ctx, g.ctxs = g.ctxs[n-1], g.ctxs[:n-1]
	} else {
		ctx = new(syscalls.Ctx)
	}
	*ctx = syscalls.Ctx{P: p, OS: g.OS, Events: g.events}
	defer func() { g.ctxs = append(g.ctxs, ctx) }()
	worker := int32(g.OS.WorkerID(p))
	for _, db := range waves {
		base := db.hw * g.simd
		for lane := 0; lane < g.simd; lane++ {
			h := &g.hot[base+lane]
			if h.state != SlotReady || h.gen != db.gen {
				continue
			}
			s := g.slot(base + lane)
			if g.inject.Should(fault.SlotSkip) {
				// Scan skipped a ready slot; the retransmit watchdog
				// redelivers the wavefront's interrupt to recover it.
				continue
			}
			owner := s.owner
			if owner == nil {
				owner = g.proc
			}
			if owner == nil {
				panic("genesys: no process bound; call BindProcess or BindKernel before launching kernels")
			}
			// Claim the slot before the context switch: SwitchTo yields
			// virtual time to charge the switch cost, and a concurrent
			// batch for the same tenancy (a retransmitted doorbell, or a
			// second doorbell from back-to-back non-blocking calls)
			// scanning during that window would otherwise double-pick the
			// slot — the loser's completion then lands on a slot the
			// wavefront has already harvested and recycled, stranding it
			// in finished with no caller left to free it.
			h.state = SlotProcessing
			// Context switches are charged only when the borrowed
			// context actually changes within the batch.
			if owner != current {
				owner.SwitchTo(p)
				current = owner
				ctx.Proc = owner
			}
			s.trace.picked = g.E.Now()
			s.trace.worker = worker
			// Snapshot the request before dispatch can mutate it (OutArgs,
			// and any handler that rewrites its arguments), so an in-place
			// restart reissues the original call, not a clobbered one.
			restartable := !h.blocking && g.inject.Active() && syscalls.Restartable(s.Req.NR)
			var orig syscalls.Request
			if restartable {
				orig = s.Req
			}
			g.CPU.Exec(p, g.OS.Config().SyscallSoftware, cpu.PrioKernel)
			syscalls.Dispatch(ctx, &s.Req)
			if restartable && syscalls.Transient(s.Req.Err) {
				// Kernel-side restart: a non-blocking call has no caller
				// left to observe a transient failure, so the worker
				// reissues it in place with backoff.
				g.restartInPlace(p, ctx, s, orig)
			}
			s.trace.done = g.E.Now()
			if h.blocking {
				h.state = SlotFinished
			} else {
				h.state = SlotFree
				g.slotReleased(s)
				g.finishTrace(s)
				g.noteCompleted()
			}
		}
		// Doorbell: wake the wavefront if it halted awaiting results —
		// only if it is still the tenancy that rang; a doorbell for a
		// retired generation is dropped at the device.
		g.GPU.Resume(db.hw, db.gen)
	}
}

// restartInPlace retries a transiently-failed non-blocking request in
// the worker, with capped exponential backoff in virtual time. orig is
// the request as populated by the GPU, snapshotted before the first
// dispatch: handlers may rewrite arguments and OutArgs while executing,
// so each retry restores the original request instead of re-issuing
// whatever the failed attempt left behind.
func (g *Genesys) restartInPlace(p *sim.Proc, ctx *syscalls.Ctx, s *Slot, orig syscalls.Request) {
	const maxRestarts = 4
	backoff := 4 * sim.Microsecond
	for attempt := 0; attempt < maxRestarts && syscalls.Transient(s.Req.Err); attempt++ {
		g.Retries++
		p.Sleep(backoff)
		if backoff < 64*sim.Microsecond {
			backoff *= 2
		}
		s.Req = orig
		s.Req.Ret, s.Req.Err = 0, errno.OK
		g.CPU.Exec(p, g.OS.Config().SyscallSoftware, cpu.PrioKernel)
		syscalls.Dispatch(ctx, &s.Req)
	}
	if syscalls.Transient(s.Req.Err) {
		g.inject.NoteSurfaced()
	} else {
		g.inject.NoteRecovered()
	}
}
