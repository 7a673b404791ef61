package core_test

import (
	"bytes"
	"testing"

	"genesys/internal/core"
	"genesys/internal/fault"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/oskern"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// newFaultMachine builds a machine with a fast retransmit watchdog and
// the given fault plan, for slot-reuse scenarios under interrupt loss.
func newFaultMachine(t *testing.T, seed int64, timeout sim.Time, maxRetx int,
	plan fault.Plan) *platform.Machine {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	cfg.Genesys.RetransmitTimeout = timeout
	cfg.Genesys.MaxRetransmits = maxRetx
	cfg.Faults = &plan
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	return m
}

// TestIRQLossRecoveryAcrossSlotReuse drops every doorbell for the first
// 200us of the run: an orphaned non-blocking call (its wavefront retires
// while the doorbell is lost) and a successor tenant of the *same*
// recycled hardware slot, bound to a different process, are then both
// recovered by their own generation-keyed retransmit watchdogs. Neither
// generation may be EINTR-aborted, and the orphan's bytes must land in
// the original owner's file even though a new tenant now occupies the
// slot.
func TestIRQLossRecoveryAcrossSlotReuse(t *testing.T) {
	const window = 200 * sim.Microsecond
	m := newFaultMachine(t, 31, 25*sim.Microsecond, 32, fault.Plan{
		Name:  "irq-loss-window",
		Rules: []fault.Rule{{Point: fault.IRQDrop, Rate: 1, Until: window}},
	})
	appA := m.NewProcess("appA")
	appB := m.OS.NewProcess("appB")

	fileA, _ := m.VFS.Open("/tmp/a", fs.O_CREAT|fs.O_RDWR)
	fileB, _ := m.VFS.Open("/tmp/b", fs.O_CREAT|fs.O_RDWR)
	fdA, _ := appA.FDs.Install(fileA)
	fdB, _ := appB.FDs.Install(fileB)

	const sizeA, sizeB = 4096, 256
	var hwA, hwB int
	var genA, genB uint64
	var resB core.Result
	m.E.Spawn("host", func(p *sim.Proc) {
		// Kernel A: a single non-blocking pwrite on lane 1, then retire.
		// The doorbell is dropped, so the slot is orphaned in Ready.
		k1 := m.GPU.Launch(p, gpu.Kernel{
			Name: "appA-orphan", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				hwA, genA = w.HWSlot, w.Gen
				m.Genesys.InvokeEach(w, func(lane int) (syscalls.Request, bool) {
					if lane != 1 {
						return syscalls.Request{}, false
					}
					return syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fdA), sizeA, 0},
						Buf:  bytes.Repeat([]byte{'a'}, sizeA),
					}, true
				}, core.Options{Blocking: false})
			},
		})
		k1.Wait(p)

		// Kernel B reuses the freed hardware slot (lane 0, so it does
		// not contend with the orphan on lane 1) in appB's context.
		k2 := m.GPU.LaunchAsync(gpu.Kernel{
			Name: "appB-reuse", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				hwB, genB = w.HWSlot, w.Gen
				res, inv := m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fdB), sizeB, 0},
					Buf:  bytes.Repeat([]byte{'b'}, sizeB),
				}, core.Options{Blocking: true, Wait: core.WaitPoll,
					Ordering: core.Strong})
				if inv {
					resB = res
				}
			},
		})
		m.Genesys.BindKernel(k2, appB)
		k2.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	if hwB != hwA || genB <= genA {
		t.Fatalf("scenario broken: hw %d/%d gen %d/%d — second kernel did not reuse the slot",
			hwA, hwB, genA, genB)
	}
	if m.Inject.InjectedAt(fault.IRQDrop) == 0 {
		t.Fatal("drop window injected nothing")
	}
	if m.Genesys.IRQRetransmits == 0 {
		t.Fatal("no retransmissions attempted")
	}
	if n := m.Inject.Surfaced; n != 0 {
		t.Fatalf("%d faults surfaced; both generations should have recovered", n)
	}
	if !resB.Ok() || resB.Ret != sizeB {
		t.Fatalf("successor tenant's call = %+v (cross-generation abort?)", resB)
	}
	a, _ := m.ReadFile("/tmp/a")
	if len(a) != sizeA {
		t.Fatalf("/tmp/a = %d bytes, want %d (orphaned write lost)", len(a), sizeA)
	}
	if m.Genesys.OrphansAdopted != 1 || m.Genesys.OrphansCompleted != 1 {
		t.Fatalf("orphans adopted=%d completed=%d, want 1/1",
			m.Genesys.OrphansAdopted, m.Genesys.OrphansCompleted)
	}
	if m.Genesys.Orphans() != 0 || m.Genesys.Outstanding() != 0 {
		t.Fatalf("orphans=%d outstanding=%d after drain",
			m.Genesys.Orphans(), m.Genesys.Outstanding())
	}
}

// TestWatchdogExhaustionScopedToOrphanGeneration drops every doorbell
// forever: the orphaned generation's watchdog exhausts its retransmit
// budget and EINTR-aborts the orphan — but must not abort (or resume)
// the successor generation occupying the same hardware slot. The
// successor's own watchdog is what eventually releases it, so the
// successor observes EINTR no earlier than its own full retransmit
// budget, not at the orphan's earlier exhaustion time.
func TestWatchdogExhaustionScopedToOrphanGeneration(t *testing.T) {
	const (
		rtxTimeout = 30 * sim.Microsecond
		maxRetx    = 3
	)
	m := newFaultMachine(t, 32, rtxTimeout, maxRetx, fault.Plan{
		Name:  "total-irq-loss",
		Rules: []fault.Rule{{Point: fault.IRQDrop, Rate: 1}},
	})
	appA := m.NewProcess("appA")
	f, _ := m.VFS.Open("/tmp/a", fs.O_CREAT|fs.O_RDWR)
	fd, _ := appA.FDs.Install(f)

	var hwA, hwB int
	var genA, genB uint64
	var invokeAt, releaseAt sim.Time
	var resB core.Result
	m.E.Spawn("host", func(p *sim.Proc) {
		k1 := m.GPU.Launch(p, gpu.Kernel{
			Name: "orphan", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				hwA, genA = w.HWSlot, w.Gen
				m.Genesys.InvokeEach(w, func(lane int) (syscalls.Request, bool) {
					if lane != 1 {
						return syscalls.Request{}, false
					}
					return syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 1024, 0},
						Buf:  make([]byte, 1024),
					}, true
				}, core.Options{Blocking: false})
			},
		})
		k1.Wait(p)

		k2 := m.GPU.Launch(p, gpu.Kernel{
			Name: "successor", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				hwB, genB = w.HWSlot, w.Gen
				// Position the successor's invocation squarely inside the
				// orphan watchdog's countdown.
				w.ComputeTime(50 * sim.Microsecond)
				if w.IsLeader() {
					invokeAt = w.P.Now()
				}
				res, inv := m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), 256, 0},
					Buf:  make([]byte, 256),
				}, core.Options{Blocking: true, Wait: core.WaitPoll,
					Ordering: core.Strong})
				if inv {
					resB = res
					releaseAt = w.P.Now()
				}
			},
		})
		k2.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	if hwB != hwA || genB <= genA {
		t.Fatalf("scenario broken: hw %d/%d gen %d/%d — second kernel did not reuse the slot",
			hwA, hwB, genA, genB)
	}
	// Under total loss both generations surface EINTR — but each from
	// its *own* watchdog. The successor must survive the orphan's
	// exhaustion (which fires ~70us after the successor invokes) and
	// only be released once its own budget runs out.
	if resB.Err == 0 {
		t.Fatalf("successor call = %+v, want EINTR under total interrupt loss", resB)
	}
	ownBudget := sim.Time(maxRetx+1) * rtxTimeout
	if held := releaseAt - invokeAt; held < ownBudget {
		t.Fatalf("successor released after %v, want ≥ %v (aborted by the orphan's watchdog?)",
			held, ownBudget)
	}
	if n := m.Inject.Surfaced; n != 2 {
		t.Fatalf("surfaced = %d, want 2 (one per generation)", n)
	}
	if m.Genesys.OrphansAdopted != 1 || m.Genesys.OrphansCompleted != 1 {
		t.Fatalf("orphans adopted=%d completed=%d, want 1/1",
			m.Genesys.OrphansAdopted, m.Genesys.OrphansCompleted)
	}
	if m.Genesys.Orphans() != 0 || m.Genesys.Outstanding() != 0 {
		t.Fatalf("orphans=%d outstanding=%d after drain",
			m.Genesys.Orphans(), m.Genesys.Outstanding())
	}
	if m.GPU.Resumes != 0 {
		t.Fatalf("resumes = %d: an exhaustion doorbell woke a polling wave's slot",
			m.GPU.Resumes)
	}
}

// TestDuplicateDoorbellSingleDispatch congests the worker queue so the
// retransmit watchdog redelivers a doorbell several times while the
// original batch task is still queued, then releases all workers at once:
// the duplicate batches race to pick the same ready slot. The batch scan
// must claim the slot (ready -> processing) before paying the
// context-switch cost — that charge yields virtual time, and a duplicate
// batch scanning inside the window used to double-pick the slot. The
// loser's dispatch then ran the same request twice (here: a second append
// doubling the file) and its completion landed on a slot the wavefront
// had already harvested and recycled, wedging the work-item's next
// invocation forever.
func TestDuplicateDoorbellSingleDispatch(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.Seed = 33
	cfg.Genesys.RetransmitTimeout = 5 * sim.Microsecond
	cfg.Genesys.MaxRetransmits = 100
	// Pin the pool so Enqueue cannot grow it past the two workers we
	// park: the doorbell batch must sit queued behind them.
	cfg.Kernel.Workers = 2
	cfg.Kernel.MaxWorkers = 2
	// Any armed rule activates the recovery machinery; NetDrop never
	// fires on a file-only workload, so nothing else is perturbed.
	plan := fault.Plan{Name: "armed-idle",
		Rules: []fault.Rule{{Point: fault.NetDrop, Rate: 0}}}
	cfg.Faults = &plan
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)

	app := m.NewProcess("app")
	f, _ := m.VFS.Open("/tmp/once", fs.O_CREAT|fs.O_RDWR)
	fd, _ := app.FDs.Install(f)

	// Park every worker long enough for several watchdog redeliveries of
	// the same doorbell to pile up behind them.
	const parked = 100 * sim.Microsecond
	for i := 0; i < cfg.Kernel.Workers; i++ {
		m.OS.Enqueue(oskern.Task{Name: "filler",
			Run: func(p *sim.Proc) { p.Sleep(parked) }})
	}

	const size1, size2 = 512, 256
	var res1, res2 core.Result
	done := false
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "caller", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				r1, inv := m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_write,
					Args: [6]uint64{uint64(fd), size1},
					Buf:  bytes.Repeat([]byte{'x'}, size1),
				}, core.Options{Blocking: true, Wait: core.WaitPoll,
					Ordering: core.Strong})
				r2, _ := m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_write,
					Args: [6]uint64{uint64(fd), size2},
					Buf:  bytes.Repeat([]byte{'y'}, size2),
				}, core.Options{Blocking: true, Wait: core.WaitPoll,
					Ordering: core.Strong})
				if inv {
					res1, res2 = r1, r2
				}
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
		done = true
	})
	// A wedged populate spin generates events forever (never a deadlock),
	// so bound the run in virtual time instead of relying on m.Run.
	if err := m.E.RunUntil(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("kernel never completed: a duplicate batch's completion stranded a recycled slot")
	}
	if m.Genesys.IRQRetransmits == 0 {
		t.Fatal("no doorbell redelivery happened; scenario not exercised")
	}
	if !res1.Ok() || res1.Ret != size1 || !res2.Ok() || res2.Ret != size2 {
		t.Fatalf("results = %+v / %+v, want %d and %d bytes", res1, res2, size1, size2)
	}
	data, _ := m.ReadFile("/tmp/once")
	if len(data) != size1+size2 {
		t.Fatalf("/tmp/once = %d bytes, want %d (a duplicate batch dispatched a call twice?)",
			len(data), size1+size2)
	}
	if m.Genesys.Orphans() != 0 || m.Genesys.Outstanding() != 0 {
		t.Fatalf("orphans=%d outstanding=%d after drain",
			m.Genesys.Orphans(), m.Genesys.Outstanding())
	}
}
