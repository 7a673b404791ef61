// Package gpu models the GPU of the simulated APU: compute units (CUs)
// holding a fixed number of wavefront slots, SIMD-64 wavefronts grouped
// into work-groups of up to 1024 work-items, and a kernel dispatcher.
//
// The properties GENESYS depends on are modelled explicitly:
//
//   - work-groups are dispatched to a CU only when enough wavefront slots
//     are free, and are never preempted mid-kernel — which is why strong
//     ordering at kernel scope can deadlock (paper §V-A) and why
//     non-blocking system calls that let a work-group finish early free
//     resources for other work-groups;
//   - work-items within a work-group can barrier, and broadcast the
//     leader's value, cheaply; there is no portable kernel-wide barrier;
//   - each resident wavefront occupies a hardware slot whose ID (and the
//     derived per-lane hardware work-item IDs) indexes the GENESYS
//     syscall area;
//   - a wavefront can interrupt the CPU (the GCN s_sendmsg scalar
//     instruction) and can halt itself, relinquishing SIMD resources
//     until the CPU resumes it.
package gpu

import (
	"fmt"
	"unsafe"

	"genesys/internal/obs"
	"genesys/internal/sim"
)

// Config describes the GPU. Defaults approximate the paper's GCN3
// integrated GPU (Table III).
type Config struct {
	CUs             int
	SIMDWidth       int
	WavefrontsPerCU int
	ClockMHz        int

	LaunchOverhead   sim.Time // CPU-side cost of launching one kernel
	InterruptLatency sim.Time // GPU→CPU interrupt delivery time
	ResumeLatency    sim.Time // latency to wake a halted wavefront

	// PollDragPerWave is the fractional slowdown each actively-polling
	// wavefront imposes on compute issued from the same CU: polling burns
	// SIMD issue slots that a halted wavefront relinquishes (§V-C). 0
	// disables the effect.
	PollDragPerWave float64
}

// DefaultConfig returns an 8-CU, 40-wavefront/CU, SIMD-64 GPU at 758 MHz.
// 8×40×64 = 20480 active hardware work-items, matching the paper's
// 1.25 MiB syscall area of 64-byte slots.
func DefaultConfig() Config {
	return Config{
		CUs:              8,
		SIMDWidth:        64,
		WavefrontsPerCU:  40,
		ClockMHz:         758,
		LaunchOverhead:   20 * sim.Microsecond,
		InterruptLatency: 5 * sim.Microsecond,
		ResumeLatency:    15 * sim.Microsecond,
		PollDragPerWave:  0.08,
	}
}

// IRQHandler receives GPU→CPU interrupts; hwWave is the hardware
// wavefront slot that raised the interrupt and gen the slot generation
// of the wavefront occupying it (see Wavefront.Gen). Handlers run as
// engine callbacks and must not block.
type IRQHandler func(hwWave int, gen uint64)

// RetireHook is called when a wavefront retires and its hardware slot is
// about to be recycled; hwSlot and gen identify the retiring tenant.
// Hooks run as engine callbacks and must not block.
type RetireHook func(hwSlot int, gen uint64)

// Device is the simulated GPU.
type Device struct {
	e   *sim.Engine
	cfg Config

	irq    IRQHandler
	retire RetireHook

	cus      []*cu
	pending  []*KernelRun
	dispatch *sim.Cond

	// hwWaves maps hardware wavefront slot → resident wavefront.
	hwWaves []*Wavefront

	// slotGens counts tenants per hardware slot: entry hw is the
	// generation of the wavefront currently (or most recently) occupying
	// slot hw. Slot reuse after retirement bumps the generation, so a
	// (slot, generation) pair names one tenant uniquely for the lifetime
	// of the machine — the key the CPU side uses to keep doorbells and
	// watchdog aborts from landing on a successor wavefront.
	slotGens []uint64

	// events, when enabled, receives wavefront run/halt spans and
	// interrupt instants (one trace-viewer thread per HW slot).
	events *obs.EventLog

	// Utilization tracks: active CUs, resident waves, halted waves,
	// polling waves.
	utilCUs     *obs.UtilTrack
	utilWaves   *obs.UtilTrack
	utilHalted  *obs.UtilTrack
	utilPolling *obs.UtilTrack

	KernelsLaunched int64
	WGsDispatched   int64
	Interrupts      int64
	Halts           int64
	Resumes         int64
}

type cu struct {
	id        int
	freeSlots []int // free hardware wavefront slot indices (LIFO)
	pollers   int   // wavefronts currently spinning on the syscall area
	resident  int   // wavefronts currently occupying slots
}

// New creates a GPU that records into the machine's event log and
// starts its dispatcher daemon. The occupancy track cus counts CUs with
// at least one resident wavefront, waves counts resident wavefronts,
// halted and polling count wavefronts in those wait states.
func New(e *sim.Engine, cfg Config, events *obs.EventLog,
	cus, waves, halted, polling *obs.UtilTrack) *Device {
	if cfg.CUs <= 0 || cfg.SIMDWidth <= 0 || cfg.WavefrontsPerCU <= 0 {
		panic("gpu: invalid config")
	}
	d := &Device{
		e:           e,
		cfg:         cfg,
		hwWaves:     make([]*Wavefront, cfg.CUs*cfg.WavefrontsPerCU),
		slotGens:    make([]uint64, cfg.CUs*cfg.WavefrontsPerCU),
		events:      events,
		utilCUs:     cus,
		utilWaves:   waves,
		utilHalted:  halted,
		utilPolling: polling,
	}
	d.dispatch = sim.NewCond(e)
	for i := 0; i < cfg.CUs; i++ {
		c := &cu{id: i}
		for s := cfg.WavefrontsPerCU - 1; s >= 0; s-- {
			c.freeSlots = append(c.freeSlots, i*cfg.WavefrontsPerCU+s)
		}
		d.cus = append(d.cus, c)
	}
	e.SpawnDaemon("gpu-dispatcher", d.dispatcher)
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetIRQHandler registers the CPU-side interrupt handler.
func (d *Device) SetIRQHandler(h IRQHandler) { d.irq = h }

// SetRetireHook registers the wavefront-retirement callback (the orphan
// hand-off point for system calls still in flight at retirement).
func (d *Device) SetRetireHook(h RetireHook) { d.retire = h }

// HWWorkItems returns the number of active hardware work-items the device
// can host — the number of slots a GENESYS syscall area needs.
func (d *Device) HWWorkItems() int {
	return d.cfg.CUs * d.cfg.WavefrontsPerCU * d.cfg.SIMDWidth
}

// HWWavefronts returns the number of hardware wavefront slots.
func (d *Device) HWWavefronts() int {
	return d.cfg.CUs * d.cfg.WavefrontsPerCU
}

// CyclesTime converts GPU cycles to virtual time.
func (d *Device) CyclesTime(cycles int64) sim.Time {
	return sim.Time(cycles * 1000 / int64(d.cfg.ClockMHz))
}

// Kernel describes a grid to launch.
type Kernel struct {
	Name string
	// WorkGroups is the number of work-groups in the grid.
	WorkGroups int
	// WGSize is the number of work-items per work-group (≤ 1024 on the
	// default config; must leave the wavefront count ≤ WavefrontsPerCU).
	WGSize int
	// Fn is the kernel body, executed once per wavefront; kernel-wide
	// state is what it captures.
	Fn func(*Wavefront)
}

func (k *Kernel) wavesPerWG(simdWidth int) int {
	return (k.WGSize + simdWidth - 1) / simdWidth
}

// KernelRun tracks one launched kernel.
type KernelRun struct {
	Kernel
	dev        *Device
	nextWG     int
	doneWGs    int
	done       bool
	doneCond   *sim.Cond
	LaunchedAt sim.Time
	FinishedAt sim.Time

	// kernel-scope barrier state (GlobalBarrier)
	gbArrived int
	gbGen     int
	gbCond    *sim.Cond
	gbWhy     string // deadlock-report reason, built on the first wait
}

// Launch submits k from a host CPU process, charging the launch overhead,
// and returns a handle to wait on.
func (d *Device) Launch(p *sim.Proc, k Kernel) *KernelRun {
	p.Sleep(d.cfg.LaunchOverhead)
	return d.LaunchAsync(k)
}

// LaunchAsync submits k without charging launch overhead to any process
// (e.g. from setup code or callbacks).
func (d *Device) LaunchAsync(k Kernel) *KernelRun {
	if k.WorkGroups <= 0 || k.WGSize <= 0 || k.Fn == nil {
		panic("gpu: invalid kernel " + k.Name)
	}
	if w := k.wavesPerWG(d.cfg.SIMDWidth); w > d.cfg.WavefrontsPerCU {
		panic(fmt.Sprintf("gpu: kernel %s work-group needs %d wavefront slots, CU has %d",
			k.Name, w, d.cfg.WavefrontsPerCU))
	}
	kr := &KernelRun{
		Kernel:     k,
		dev:        d,
		doneCond:   sim.NewCond(d.e),
		gbCond:     sim.NewCond(d.e),
		LaunchedAt: d.e.Now(),
	}
	d.pending = append(d.pending, kr)
	d.KernelsLaunched++
	d.dispatch.Broadcast()
	return kr
}

// Wait blocks p until the kernel has fully completed.
func (kr *KernelRun) Wait(p *sim.Proc) {
	for !kr.done {
		kr.doneCond.Wait(p, "kernel "+kr.Name+" completion")
	}
}

// Done reports whether the kernel has completed.
func (kr *KernelRun) Done() bool { return kr.done }

// Runtime returns the kernel's launch-to-finish duration (0 if unfinished).
func (kr *KernelRun) Runtime() sim.Time {
	if !kr.done {
		return 0
	}
	return kr.FinishedAt - kr.LaunchedAt
}

// dispatcher assigns pending work-groups to CUs with free wavefront slots.
func (d *Device) dispatcher(p *sim.Proc) {
	for {
		progress := d.tryDispatch()
		if !progress {
			d.dispatch.Wait(p, "gpu dispatcher idle")
		}
	}
}

// tryDispatch places as many work-groups as will fit; it reports whether
// any placement happened.
func (d *Device) tryDispatch() bool {
	progress := false
	for len(d.pending) > 0 {
		kr := d.pending[0]
		waves := kr.wavesPerWG(d.cfg.SIMDWidth)
		placed := false
		for _, c := range d.cus {
			if len(c.freeSlots) >= waves {
				d.startWG(kr, c)
				placed = true
				progress = true
				break
			}
		}
		if !placed {
			break // head-of-line blocking: in-order dispatch, like real queues
		}
		if kr.nextWG >= kr.WorkGroups {
			d.pending = d.pending[1:]
		}
	}
	return progress
}

// WorkGroup is one resident work-group.
type WorkGroup struct {
	Run *KernelRun
	ID  int

	cu    *cu
	waves []*Wavefront

	barGen   int
	barCount int
	barCond  *sim.Cond
	barWhy   string // deadlock-report reason, built on the first wait

	// bcast holds the leader's value for Broadcast, one slot per parity
	// of barGen.
	bcast [2]unsafe.Pointer

	doneWaves int
}

func (d *Device) startWG(kr *KernelRun, c *cu) {
	wg := &WorkGroup{
		Run:     kr,
		ID:      kr.nextWG,
		cu:      c,
		barCond: sim.NewCond(d.e),
	}
	kr.nextWG++
	d.WGsDispatched++
	waves := kr.wavesPerWG(d.cfg.SIMDWidth)
	remaining := kr.WGSize
	for i := 0; i < waves; i++ {
		lanes := d.cfg.SIMDWidth
		if remaining < lanes {
			lanes = remaining
		}
		remaining -= lanes
		slot := c.freeSlots[len(c.freeSlots)-1]
		c.freeSlots = c.freeSlots[:len(c.freeSlots)-1]
		d.slotGens[slot]++
		w := &Wavefront{
			WG:         wg,
			ID:         i,
			HWSlot:     slot,
			Gen:        d.slotGens[slot],
			Lanes:      lanes,
			dev:        d,
			resumeCond: sim.NewCond(d.e),
		}
		d.hwWaves[slot] = w
		wg.waves = append(wg.waves, w)
		d.utilWaves.Add(d.e.Now(), 1)
		c.resident++
		if c.resident == 1 {
			d.utilCUs.Add(d.e.Now(), 1)
		}
	}
	for _, w := range wg.waves {
		w := w
		name := fmt.Sprintf("%s/wg%d/wf%d", kr.Name, wg.ID, w.ID)
		d.e.Spawn(name, func(p *sim.Proc) {
			w.P = p
			start := d.e.Now()
			kr.Fn(w)
			d.events.Span("gpu", "wave "+name, obs.PIDGPU, w.HWSlot, start, d.e.Now())
			d.waveDone(w)
		})
	}
}

func (d *Device) waveDone(w *Wavefront) {
	wg := w.WG
	d.hwWaves[w.HWSlot] = nil
	if d.retire != nil {
		// Hand off before the slot re-enters the free list: system calls
		// the retiring wavefront left in flight must be adopted before a
		// successor tenant can be dispatched onto the same slot.
		d.retire(w.HWSlot, w.Gen)
	}
	wg.cu.freeSlots = append(wg.cu.freeSlots, w.HWSlot)
	d.utilWaves.Add(d.e.Now(), -1)
	wg.cu.resident--
	if wg.cu.resident == 0 {
		d.utilCUs.Add(d.e.Now(), -1)
	}
	wg.doneWaves++
	if wg.doneWaves == len(wg.waves) {
		kr := wg.Run
		kr.doneWGs++
		if kr.doneWGs == kr.WorkGroups {
			kr.done = true
			kr.FinishedAt = d.e.Now()
			kr.doneCond.Broadcast()
		}
	}
	d.dispatch.Broadcast()
}

// ResidentWave returns the wavefront currently occupying hardware slot
// hwWave, or nil.
func (d *Device) ResidentWave(hwWave int) *Wavefront {
	if hwWave < 0 || hwWave >= len(d.hwWaves) {
		return nil
	}
	return d.hwWaves[hwWave]
}

// SlotGeneration returns the generation of the wavefront currently (or,
// for a vacated slot, most recently) occupying hardware slot hwWave; 0
// means the slot has never been occupied.
func (d *Device) SlotGeneration(hwWave int) uint64 {
	if hwWave < 0 || hwWave >= len(d.slotGens) {
		return 0
	}
	return d.slotGens[hwWave]
}

// Resume wakes the wavefront halted in hardware slot hwWave, provided it
// is still the tenant of generation gen — a doorbell addressed to a
// retired generation is dropped rather than delivered to whatever
// wavefront has since been dispatched onto the recycled slot. Safe to
// call from engine callbacks (the CPU side). Resuming a non-halted,
// vacated or re-tenanted slot is a no-op, matching hardware doorbell
// semantics.
func (d *Device) Resume(hwWave int, gen uint64) {
	w := d.ResidentWave(hwWave)
	if w == nil || w.Gen != gen || !w.halted {
		return
	}
	d.Resumes++
	w.halted = false
	w.resumeCond.Broadcast()
}

// Wavefront is one resident SIMD-64 wavefront executing the kernel body.
type Wavefront struct {
	// P is the simulation process running this wavefront; set before the
	// kernel body is entered.
	P *sim.Proc
	// WG is the wavefront's work-group.
	WG *WorkGroup
	// ID is the wavefront index within the work-group.
	ID int
	// HWSlot is the hardware wavefront slot (indexes the syscall area).
	HWSlot int
	// Gen is the slot generation of this tenancy: HWSlot alone aliases
	// across kernels the moment the wavefront retires and the slot is
	// recycled, so everything the CPU side keys by hardware slot
	// (doorbells, retransmit watchdogs, resumes) carries (HWSlot, Gen).
	Gen uint64
	// Lanes is the number of active lanes (< SIMDWidth only in the last,
	// partial wavefront of a work-group).
	Lanes int

	dev        *Device
	halted     bool
	resumeCond *sim.Cond
	haltWhy    string // deadlock-report reason, built on the first halt
}

// Device returns the GPU this wavefront runs on.
func (w *Wavefront) Device() *Device { return w.dev }

// IsLeader reports whether this is wavefront 0 of its work-group — the
// conventional system-call leader for work-group-granularity invocation.
func (w *Wavefront) IsLeader() bool { return w.ID == 0 }

// IsKernelLeader reports whether this is wavefront 0 of work-group 0.
func (w *Wavefront) IsKernelLeader() bool { return w.ID == 0 && w.WG.ID == 0 }

// HWWorkItemID returns the hardware work-item ID of the given lane: the
// index of that lane's slot in the GENESYS syscall area.
func (w *Wavefront) HWWorkItemID(lane int) int {
	if lane < 0 || lane >= w.dev.cfg.SIMDWidth {
		panic("gpu: lane out of range")
	}
	return w.HWSlot*w.dev.cfg.SIMDWidth + lane
}

// GlobalWorkItemID returns the programmer-visible (grid-wide) work-item
// ID of the given lane.
func (w *Wavefront) GlobalWorkItemID(lane int) int {
	return w.WG.ID*w.WG.Run.WGSize + w.ID*w.dev.cfg.SIMDWidth + lane
}

// Compute advances the wavefront by the given number of GPU cycles.
func (w *Wavefront) Compute(cycles int64) {
	if cycles > 0 {
		w.ComputeTime(w.dev.CyclesTime(cycles))
	}
}

// ComputeTime advances the wavefront by d of execution, stretched by the
// issue-slot drag of any co-resident polling wavefronts.
func (w *Wavefront) ComputeTime(d sim.Time) {
	if d <= 0 {
		return
	}
	c := w.WG.cu
	if c.pollers > 0 && w.dev.cfg.PollDragPerWave > 0 {
		d = sim.Time(float64(d) * (1 + w.dev.cfg.PollDragPerWave*float64(c.pollers)))
	}
	w.P.Sleep(d)
}

// BeginPoll marks the wavefront as actively polling; co-resident
// wavefronts' compute slows until EndPoll.
func (w *Wavefront) BeginPoll() {
	w.WG.cu.pollers++
	w.dev.utilPolling.Add(w.dev.e.Now(), 1)
}

// EndPoll clears the polling mark.
func (w *Wavefront) EndPoll() {
	if w.WG.cu.pollers > 0 {
		w.WG.cu.pollers--
		w.dev.utilPolling.Add(w.dev.e.Now(), -1)
	}
}

// Barrier synchronizes all wavefronts of the work-group (the OpenCL
// work-group barrier). Every wavefront of the group must call it.
func (w *Wavefront) Barrier() {
	wg := w.WG
	gen := wg.barGen
	wg.barCount++
	if wg.barCount == len(wg.waves) {
		wg.barCount = 0
		wg.barGen++
		wg.barCond.Broadcast()
		return
	}
	if wg.barWhy == "" {
		wg.barWhy = fmt.Sprintf("wg barrier (%s/wg%d)", wg.Run.Name, wg.ID)
	}
	for wg.barGen == gen {
		wg.barCond.Wait(w.P, wg.barWhy)
	}
}

// Broadcast is a work-group barrier that returns the leader's
// (wavefront 0's) v to every wavefront of the group, as OpenCL 2.0's
// work_group_broadcast does; the other wavefronts' v are ignored. Every
// wavefront of the group must call it at the same point, with the same T.
//
// The leader stores v before it arrives, in the slot of the current
// barrier generation's parity. A released wavefront reads its slot when
// it next runs; by then the leader may have stored the next broadcast's
// value, but in the other slot, and it cannot get two broadcasts ahead
// because the next barrier waits for that wavefront. A one-wavefront
// group stores nothing.
func Broadcast[T any](w *Wavefront, v T) T {
	wg := w.WG
	if len(wg.waves) == 1 {
		w.Barrier()
		return v
	}
	slot := &wg.bcast[wg.barGen&1]
	if w.IsLeader() {
		p := new(T)
		*p = v
		*slot = unsafe.Pointer(p)
		w.Barrier()
		return v
	}
	w.Barrier()
	return *(*T)(*slot)
}

// GlobalBarrier attempts a kernel-wide barrier across all work-groups.
// This is the non-portable inter-work-group barrier the paper warns
// about: because work-groups are not preemptible, the barrier DEADLOCKS
// whenever the kernel has more work-groups than can be co-resident —
// the reason strong ordering is forbidden at kernel-scope invocation
// granularity (§V-A).
func (w *Wavefront) GlobalBarrier() {
	kr := w.WG.Run
	gen := kr.gbGen
	total := kr.WorkGroups * kr.wavesPerWG(w.dev.cfg.SIMDWidth)
	kr.gbArrived++
	if kr.gbArrived == total {
		kr.gbArrived = 0
		kr.gbGen++
		kr.gbCond.Broadcast()
		return
	}
	if kr.gbWhy == "" {
		kr.gbWhy = fmt.Sprintf("kernel-scope barrier (%s)", kr.Name)
	}
	for kr.gbGen == gen {
		kr.gbCond.Wait(w.P, kr.gbWhy)
	}
}

// Interrupt raises a GPU→CPU interrupt carrying this wavefront's hardware
// slot ID and slot generation (the s_sendmsg path). Delivery takes
// InterruptLatency; the handler runs as an engine callback on the
// allocation-free CallAfter fast path — the doorbell is the hottest hop
// in the system (one per invocation, more under retransmission).
func (w *Wavefront) Interrupt() {
	w.dev.Interrupts++
	d := w.dev
	hw, gen := w.HWSlot, w.Gen
	d.events.Instant("gpu", "irq", obs.PIDGPU, hw, d.e.Now())
	d.e.CallAfter(d.cfg.InterruptLatency, func() {
		if d.irq != nil {
			d.irq(hw, gen)
		}
	})
}

// Halt suspends the wavefront, relinquishing its SIMD resources, until
// the CPU calls Device.Resume on its hardware slot. The resume latency is
// charged on wake-up.
func (w *Wavefront) Halt() {
	w.dev.Halts++
	start := w.dev.e.Now()
	w.halted = true
	w.dev.utilHalted.Add(start, 1)
	if w.haltWhy == "" {
		w.haltWhy = fmt.Sprintf("halted wavefront hw%d", w.HWSlot)
	}
	for w.halted {
		w.resumeCond.Wait(w.P, w.haltWhy)
	}
	w.P.Sleep(w.dev.cfg.ResumeLatency)
	w.dev.utilHalted.Add(w.dev.e.Now(), -1)
	w.dev.events.Span("gpu", "halt", obs.PIDGPU, w.HWSlot, start, w.dev.e.Now())
}
