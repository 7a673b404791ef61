package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"genesys/internal/core"
	"genesys/internal/errno"
	"genesys/internal/fault"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

func newMachine(t *testing.T, seed int64) *platform.Machine {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	return m
}

func TestAreaMatchesPaper(t *testing.T) {
	m := newMachine(t, 1)
	if m.Genesys.AreaBytes() != 20480*64 {
		t.Fatalf("area = %d bytes, want 1.25 MiB", m.Genesys.AreaBytes())
	}
}

func TestWorkGroupBlockingPwrite(t *testing.T) {
	m := newMachine(t, 1)
	pr := m.NewProcess("app")
	// Open the output file from the host, then have each work-group
	// pwrite its block at its own offset.
	f, err := m.VFS.Open("/tmp/out", fs.O_CREAT|fs.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := pr.FDs.Install(f)

	const wgs = 8
	const blockSize = 1024
	var leaderResults []core.Result
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "writer", WorkGroups: wgs, WGSize: 256,
			Fn: func(w *gpu.Wavefront) {
				buf := bytes.Repeat([]byte{byte('A' + w.WG.ID)}, blockSize)
				res, invoker := m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), blockSize, uint64(w.WG.ID * blockSize)},
					Buf:  buf,
				}, core.Options{Blocking: true, Wait: core.WaitPoll, Ordering: core.Strong})
				if invoker {
					leaderResults = append(leaderResults, res)
				}
			},
		})
		k.Wait(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(leaderResults) != wgs {
		t.Fatalf("leader results = %d, want %d", len(leaderResults), wgs)
	}
	for _, r := range leaderResults {
		if !r.Ok() || r.Ret != blockSize {
			t.Fatalf("pwrite result = %+v", r)
		}
	}
	data, _ := m.ReadFile("/tmp/out")
	if len(data) != wgs*blockSize {
		t.Fatalf("file size = %d", len(data))
	}
	for wg := 0; wg < wgs; wg++ {
		for i := 0; i < blockSize; i++ {
			if data[wg*blockSize+i] != byte('A'+wg) {
				t.Fatalf("byte %d of block %d = %c", i, wg, data[wg*blockSize+i])
			}
		}
	}
	if m.Genesys.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after completion", m.Genesys.Outstanding())
	}
}

func TestWorkItemGranularityPread(t *testing.T) {
	m := newMachine(t, 1)
	pr := m.NewProcess("app")
	// 64 lanes each pread 16 bytes at their own offset.
	content := make([]byte, 64*16)
	for i := range content {
		content[i] = byte(i % 251)
	}
	if err := m.WriteFile("/tmp/in", content); err != nil {
		t.Fatal(err)
	}
	f, _ := m.VFS.Open("/tmp/in", fs.O_RDONLY)
	fd, _ := pr.FDs.Install(f)

	lanebufs := make([][]byte, 64)
	var results []core.Result
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "wi-read", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				results = m.Genesys.InvokeEach(w, func(lane int) (syscalls.Request, bool) {
					lanebufs[lane] = make([]byte, 16)
					return syscalls.Request{
						NR:   syscalls.SYS_pread64,
						Args: [6]uint64{uint64(fd), 16, uint64(lane * 16)},
						Buf:  lanebufs[lane],
					}, true
				}, core.Options{Blocking: true, Wait: core.WaitHaltResume})
			},
		})
		k.Wait(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 64 {
		t.Fatalf("results = %d", len(results))
	}
	for lane := 0; lane < 64; lane++ {
		if !results[lane].Ok() || results[lane].Ret != 16 {
			t.Fatalf("lane %d result %+v", lane, results[lane])
		}
		if !bytes.Equal(lanebufs[lane], content[lane*16:(lane+1)*16]) {
			t.Fatalf("lane %d data mismatch", lane)
		}
	}
	if m.GPU.Halts == 0 {
		t.Fatal("halt-resume path never halted")
	}
}

func TestNonBlockingAndDrain(t *testing.T) {
	m := newMachine(t, 1)
	pr := m.NewProcess("app")
	f, _ := m.VFS.Open("/tmp/out", fs.O_CREAT|fs.O_WRONLY)
	fd, _ := pr.FDs.Install(f)

	outstandingAtKernelDone := -1
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "nb", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), 4096, 0},
					Buf:  make([]byte, 4096),
				}, core.Options{Blocking: false, Ordering: core.Relaxed, Kind: core.Consumer})
			},
		})
		k.Wait(p)
		// Non-blocking: the kernel finishes while the system call is
		// still in flight on the CPU side.
		outstandingAtKernelDone = m.Genesys.Outstanding()
		m.Genesys.Drain(p) // §IX: ensure completion before process exit
		if m.Genesys.Outstanding() != 0 {
			t.Error("outstanding after drain")
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	data, _ := m.ReadFile("/tmp/out")
	if len(data) != 4096 {
		t.Fatalf("file size = %d: non-blocking write lost", len(data))
	}
	if outstandingAtKernelDone != 1 {
		t.Fatalf("outstanding at kernel completion = %d, want 1 (call still in flight)",
			outstandingAtKernelDone)
	}
}

func TestOrderingBarrierPlacement(t *testing.T) {
	// Measure when non-leader wavefronts get past the invocation under
	// each ordering. Strong+blocking keeps everyone until completion;
	// weak+blocking releases non-leaders as soon as they hit Bar1.
	runVariant := func(o core.Options) (leaderDone, othersDone sim.Time) {
		m := newMachine(t, 7)
		pr := m.NewProcess("app")
		f, _ := m.VFS.Open("/tmp/out", fs.O_CREAT|fs.O_WRONLY)
		fd, _ := pr.FDs.Install(f)
		m.E.Spawn("host", func(p *sim.Proc) {
			k := m.GPU.Launch(p, gpu.Kernel{
				Name: "ord", WorkGroups: 1, WGSize: 1024,
				Fn: func(w *gpu.Wavefront) {
					_, invoker := m.Genesys.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 64 << 10, 0},
						Buf:  make([]byte, 64<<10),
					}, o)
					if invoker {
						leaderDone = w.P.Now()
					} else if w.P.Now() > othersDone {
						othersDone = w.P.Now()
					}
				},
			})
			k.Wait(p)
			m.Genesys.Drain(p)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return leaderDone, othersDone
	}

	strongLeader, strongOthers := runVariant(core.Options{
		Blocking: true, Wait: core.WaitPoll, Ordering: core.Strong})
	weakLeader, weakOthers := runVariant(core.Options{
		Blocking: true, Wait: core.WaitPoll, Ordering: core.Relaxed, Kind: core.Consumer})

	if strongOthers < strongLeader {
		t.Fatalf("strong: others (%v) finished before leader (%v)", strongOthers, strongLeader)
	}
	if weakOthers >= weakLeader {
		t.Fatalf("weak consumer: others (%v) did not finish before blocking leader (%v)",
			weakOthers, weakLeader)
	}
}

func TestInvokeWGBroadcastsLeaderResult(t *testing.T) {
	// Bar2 hands the leader's Result to every wavefront of a 4-wavefront
	// group; relaxed consumer ordering has no Bar2, so the others get a
	// zero Result. late delays wavefront 3 until long after the leader's
	// pwrite has completed, so the leader waits for it at Bar2.
	const n = 123
	cases := []struct {
		name       string
		o          core.Options
		late       sim.Time
		wantOthers core.Result
	}{
		{"strong", core.Options{Ordering: core.Strong}, 0, core.Result{Ret: n}},
		{"producer", core.Options{Ordering: core.Relaxed, Kind: core.Producer}, 0, core.Result{Ret: n}},
		{"producer-late", core.Options{Ordering: core.Relaxed, Kind: core.Producer}, sim.Millisecond, core.Result{Ret: n}},
		{"consumer", core.Options{Ordering: core.Relaxed, Kind: core.Consumer}, 0, core.Result{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, 1)
			pr := m.NewProcess("app")
			f, _ := m.VFS.Open("/tmp/out", fs.O_CREAT|fs.O_WRONLY)
			fd, _ := pr.FDs.Install(f)
			o := tc.o
			o.Blocking, o.Wait = true, core.WaitPoll
			got := make([]core.Result, 4)
			var leaderDone, lateAt sim.Time
			m.E.Spawn("host", func(p *sim.Proc) {
				m.GPU.Launch(p, gpu.Kernel{
					Name: "bcast", WorkGroups: 1, WGSize: 256,
					Fn: func(w *gpu.Wavefront) {
						if w.ID == 3 {
							w.ComputeTime(tc.late)
							lateAt = w.P.Now()
						}
						res, _ := m.Genesys.InvokeWG(w, syscalls.Request{
							NR:   syscalls.SYS_pwrite64,
							Args: [6]uint64{uint64(fd), n, 0},
							Buf:  make([]byte, n),
						}, o)
						got[w.ID] = res
						if w.IsLeader() {
							leaderDone = w.P.Now()
						}
					},
				}).Wait(p)
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if got[0] != (core.Result{Ret: n}) {
				t.Fatalf("leader got %+v, want Ret %d", got[0], n)
			}
			for id, r := range got[1:] {
				if r != tc.wantOthers {
					t.Errorf("wavefront %d got %+v, want %+v", id+1, r, tc.wantOthers)
				}
			}
			if tc.late > 0 && leaderDone != lateAt {
				t.Errorf("leader left Bar2 at %v, not at the late arrival %v", leaderDone, lateAt)
			}
		})
	}
}

func TestKernelGranularity(t *testing.T) {
	m := newMachine(t, 1)
	pr := m.NewProcess("app")
	f, _ := m.VFS.Open("/tmp/out", fs.O_CREAT|fs.O_WRONLY)
	fd, _ := pr.FDs.Install(f)
	invokers := 0
	var strongErr error
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "kg", WorkGroups: 8, WGSize: 256,
			Fn: func(w *gpu.Wavefront) {
				// Strong ordering must be rejected.
				if _, _, err := m.Genesys.InvokeKernel(w, syscalls.Request{}, core.Options{
					Blocking: true, Ordering: core.Strong}); err != nil && strongErr == nil {
					strongErr = err
				}
				_, inv, err := m.Genesys.InvokeKernel(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), 128, 0},
					Buf:  make([]byte, 128),
				}, core.Options{Blocking: true, Wait: core.WaitPoll, Ordering: core.Relaxed})
				if err != nil {
					t.Errorf("relaxed kernel invoke: %v", err)
				}
				if inv {
					invokers++
				}
			},
		})
		k.Wait(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if invokers != 1 {
		t.Fatalf("invokers = %d, want 1 (kernel leader only)", invokers)
	}
	if strongErr != core.ErrKernelStrongOrdering {
		t.Fatalf("strong at kernel scope = %v", strongErr)
	}
}

func TestSlotConflictDelaysInvocation(t *testing.T) {
	m := newMachine(t, 1)
	pr := m.NewProcess("app")
	f, _ := m.VFS.Open("/tmp/out", fs.O_CREAT|fs.O_WRONLY)
	fd, _ := pr.FDs.Install(f)
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "conflict", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				// Two back-to-back non-blocking calls on the same
				// work-item: the second must wait for the slot to free.
				for i := 0; i < 2; i++ {
					m.Genesys.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 8, uint64(8 * i)},
						Buf:  []byte("01234567"),
					}, core.Options{Blocking: false, Ordering: core.Relaxed, Kind: core.Consumer})
				}
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Genesys.SlotConflicts == 0 {
		t.Fatal("second call on busy slot did not conflict")
	}
	data, _ := m.ReadFile("/tmp/out")
	if len(data) != 16 {
		t.Fatalf("file = %d bytes, want both writes", len(data))
	}
}

func TestCoalescingBatchesInterrupts(t *testing.T) {
	run := func(window sim.Time, max int) (batches, waves int64) {
		m := newMachine(t, 3)
		pr := m.NewProcess("app")
		f, _ := m.VFS.Open("/tmp/out", fs.O_CREAT|fs.O_WRONLY)
		fd, _ := pr.FDs.Install(f)
		m.Genesys.SetCoalescing(window, max)
		m.E.Spawn("host", func(p *sim.Proc) {
			k := m.GPU.Launch(p, gpu.Kernel{
				Name: "coal", WorkGroups: 16, WGSize: 64,
				Fn: func(w *gpu.Wavefront) {
					m.Genesys.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 64, uint64(64 * w.WG.ID)},
						Buf:  make([]byte, 64),
					}, core.Options{Blocking: true, Wait: core.WaitPoll, Ordering: core.Relaxed, Kind: core.Consumer})
				},
			})
			k.Wait(p)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Genesys.Batches, m.Genesys.BatchedWaves
	}
	b0, w0 := run(0, 1)
	if b0 != w0 {
		t.Fatalf("no coalescing: batches=%d waves=%d", b0, w0)
	}
	b1, w1 := run(100*sim.Microsecond, 8)
	if w1 != w0 {
		t.Fatalf("coalesced run processed %d waves, want %d", w1, w0)
	}
	if b1 >= b0 {
		t.Fatalf("coalescing did not reduce batches: %d vs %d", b1, b0)
	}
}

func TestCoalesceKnobWriteFlushesParkedBatch(t *testing.T) {
	// A batch parked under a long coalescing window must flush the moment
	// a knob write makes it eligible: lowering coalesce_max below the
	// number of pending doorbells (via sysfs), or disabling the window
	// (via SetCoalescing) — not sit parked until the old window's timer.
	const window = 10 * sim.Millisecond
	m := newMachine(t, 17)
	pr := m.NewProcess("app")
	f, _ := m.VFS.Open("/tmp/out", fs.O_CREAT|fs.O_WRONLY)
	fd, _ := pr.FDs.Install(f)

	kernel := func(name string, off int) gpu.Kernel {
		return gpu.Kernel{
			Name: name, WorkGroups: 4, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), 64, uint64(off + 64*w.WG.ID)},
					Buf:  make([]byte, 64),
				}, core.Options{Blocking: true, Wait: core.WaitPoll,
					Ordering: core.Relaxed, Kind: core.Consumer})
			},
		}
	}
	io := &fs.IOCtx{}
	var sysfsDone, setDone sim.Time
	m.E.Spawn("host", func(p *sim.Proc) {
		// Round 1: 4 doorbells park (max 8 not reached); writing
		// coalesce_max=2 through sysfs must flush them immediately.
		m.Genesys.SetCoalescing(window, 8)
		k1 := m.GPU.Launch(p, kernel("park-sysfs", 0))
		p.Sleep(500 * sim.Microsecond)
		cm, err := m.VFS.Open("/sys/genesys/coalesce_max", fs.O_RDWR)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := cm.Write(io, []byte("2\n")); err != nil {
			t.Errorf("coalesce_max write: %v", err)
		}
		k1.Wait(p)
		sysfsDone = p.Now()

		// Round 2: park again, then disable the window via SetCoalescing.
		m.Genesys.SetCoalescing(window, 8)
		k2 := m.GPU.Launch(p, kernel("park-set", 1024))
		p.Sleep(500 * sim.Microsecond)
		m.Genesys.SetCoalescing(0, 8)
		k2.Wait(p)
		setDone = p.Now()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if sysfsDone >= window {
		t.Fatalf("sysfs knob write did not flush: round 1 finished at %v (window %v)",
			sysfsDone, window)
	}
	if setDone >= 2*window {
		t.Fatalf("SetCoalescing did not flush: round 2 finished at %v", setDone)
	}
	if b, w := m.Genesys.Batches, m.Genesys.BatchedWaves; b != 2 || w != 8 {
		t.Fatalf("batches=%d waves=%d, want 2 batches of 4 waves each", b, w)
	}
}

func TestRestartInPlaceReissuesOriginalRequest(t *testing.T) {
	// A non-blocking restartable call that fails transiently is reissued
	// in place by the worker; each retry must carry the original request,
	// and once the transient clears the write lands whole at the original
	// offset with nothing surfaced to the workload.
	cfg := platform.DefaultConfig()
	cfg.Seed = 19
	cfg.Faults = &fault.Plan{Name: "early-eagain", Rules: []fault.Rule{
		{Point: fault.SyscallErrno, Rate: 1, Until: 60 * sim.Microsecond,
			Param: int64(errno.EAGAIN)},
	}}
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	pr := m.NewProcess("app")
	f, _ := m.VFS.Open("/tmp/out", fs.O_CREAT|fs.O_WRONLY)
	fd, _ := pr.FDs.Install(f)

	const size = 4096
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "restart", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), size, 0},
					Buf:  bytes.Repeat([]byte{'x'}, size),
				}, core.Options{Blocking: false, Ordering: core.Relaxed, Kind: core.Consumer})
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Inject.InjectedAt(fault.SyscallErrno) == 0 {
		t.Fatal("injection window fired nothing; first dispatch missed it")
	}
	if m.Genesys.Retries == 0 {
		t.Fatal("transient failure did not trigger an in-place restart")
	}
	if m.Inject.Surfaced != 0 {
		t.Fatalf("surfaced = %d; the restart should have recovered", m.Inject.Surfaced)
	}
	if m.Inject.Recovered == 0 {
		t.Fatal("recovery not recorded")
	}
	data, _ := m.ReadFile("/tmp/out")
	if len(data) != size || bytes.Contains(data, []byte{0}) {
		t.Fatalf("file = %d bytes (retry reissued a clobbered request?)", len(data))
	}
}

func TestSysfsTunables(t *testing.T) {
	m := newMachine(t, 1)
	io := &fs.IOCtx{}
	wf, err := m.VFS.Open("/sys/genesys/coalesce_max", fs.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write(io, []byte("16\n")); err != nil {
		t.Fatal(err)
	}
	if m.Genesys.Config().CoalesceMax != 16 {
		t.Fatalf("coalesce_max = %d", m.Genesys.Config().CoalesceMax)
	}
	ww, _ := m.VFS.Open("/sys/genesys/coalesce_window_us", fs.O_RDWR)
	if _, err := ww.Write(io, []byte("250")); err != nil {
		t.Fatal(err)
	}
	if m.Genesys.Config().CoalesceWindow != 250*sim.Microsecond {
		t.Fatalf("window = %v", m.Genesys.Config().CoalesceWindow)
	}
	if _, err := ww.Write(io, []byte("junk")); err != errno.EINVAL {
		t.Fatalf("bad write = %v", err)
	}
	buf := make([]byte, 8)
	n, _ := wf.Pread(io, buf, 0)
	if string(buf[:n]) != "16\n" {
		t.Fatalf("readback = %q", buf[:n])
	}
}

func TestENOSYSForUnimplemented(t *testing.T) {
	m := newMachine(t, 1)
	m.NewProcess("app")
	var res core.Result
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "enosys", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				res, _ = m.Genesys.InvokeWG(w, syscalls.Request{NR: 57 /* fork */},
					core.Options{Blocking: true, Wait: core.WaitPoll, Ordering: core.Strong})
			},
		})
		k.Wait(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Err != errno.ENOSYS || res.Ret != -1 {
		t.Fatalf("fork from GPU = %+v, want ENOSYS", res)
	}
}

func TestGPUPrintsToTerminal(t *testing.T) {
	// "Everything is a file": the GPU writes to stdout (fd 1).
	m := newMachine(t, 1)
	m.NewProcess("app")
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "print", WorkGroups: 4, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				line := fmt.Sprintf("hello from wg%d\n", w.WG.ID)
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_write,
					Args: [6]uint64{1, uint64(len(line))},
					Buf:  []byte(line),
				}, core.Options{Blocking: true, Wait: core.WaitPoll, Ordering: core.Relaxed, Kind: core.Consumer})
			},
		})
		k.Wait(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	lines := m.OS.Console.Lines()
	if len(lines) != 4 {
		t.Fatalf("console lines = %v", lines)
	}
	seen := map[string]bool{}
	for _, l := range lines {
		seen[l] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[fmt.Sprintf("hello from wg%d", i)] {
			t.Fatalf("missing output of wg%d: %v", i, lines)
		}
	}
}

func TestGPUOpenReadClose(t *testing.T) {
	// The GPU opens a file by pathname, reads it, and closes it — the
	// wordcount pattern (§VIII-C).
	m := newMachine(t, 1)
	m.NewProcess("app")
	if err := m.WriteFile("/tmp/doc", []byte("the quick brown fox")); err != nil {
		t.Fatal(err)
	}
	var got []byte
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "orc", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				opts := core.Options{Blocking: true, Wait: core.WaitPoll, Ordering: core.Relaxed, Kind: core.Producer}
				res, inv := m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_open,
					Args: [6]uint64{fs.O_RDONLY},
					Buf:  []byte("/tmp/doc"),
				}, opts)
				if !inv {
					return
				}
				if !res.Ok() {
					t.Errorf("open: %v", res.Err)
					return
				}
				fd := uint64(res.Ret)
				buf := make([]byte, 64)
				res, _ = m.Genesys.InvokeWG(w, syscalls.Request{
					NR: syscalls.SYS_read, Args: [6]uint64{fd, 64}, Buf: buf,
				}, opts)
				got = buf[:res.Ret]
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR: syscalls.SYS_close, Args: [6]uint64{fd},
				}, core.Options{Blocking: true, Wait: core.WaitPoll, Ordering: core.Relaxed, Kind: core.Consumer})
			},
		})
		k.Wait(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "the quick brown fox" {
		t.Fatalf("read back %q", got)
	}
}

func TestPrefetchPattern(t *testing.T) {
	// §V-A's closing example: "a programmer wishes to prefetch data using
	// read system calls but may not use the results immediately. Here,
	// weak ordering with non-blocking invocation is likely to provide the
	// best performance without breaking the program's semantics."
	// The kernel issues a non-blocking pread (prefetch), computes, and
	// only then consumes the data, which the CPU filled in the meantime.
	m := newMachine(t, 13)
	m.NewProcess("app")
	content := bytes.Repeat([]byte("prefetch!"), 1000)
	if err := m.WriteFile("/tmp/in", content); err != nil {
		t.Fatal(err)
	}
	f, _ := m.VFS.Open("/tmp/in", fs.O_RDONLY)
	pr := m.Genesys.Process()
	fd, _ := pr.FDs.Install(f)

	var gotFirst byte
	var issueTime, consumeTime sim.Time
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "prefetch", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				buf := make([]byte, 4096)
				// Issue the prefetch: non-blocking, weak ordering.
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pread64,
					Args: [6]uint64{uint64(fd), 4096, 0},
					Buf:  buf,
				}, core.Options{Blocking: false, Ordering: core.Relaxed, Kind: core.Producer})
				issueTime = w.P.Now()
				// Overlap compute with the CPU-side read processing.
				w.ComputeTime(500 * sim.Microsecond)
				// Consume: by now the slot has been processed and freed;
				// the data is in the buffer.
				if w.IsLeader() {
					consumeTime = w.P.Now()
					gotFirst = buf[0]
				}
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if gotFirst != 'p' {
		t.Fatalf("prefetched data not present: first byte %q", gotFirst)
	}
	if consumeTime-issueTime < 500*sim.Microsecond {
		t.Fatal("compute did not overlap the prefetch")
	}
	if m.Genesys.Outstanding() != 0 {
		t.Fatal("prefetch never completed")
	}
}

func TestPackedSlotsAblation(t *testing.T) {
	// DESIGN.md ⚗2: packing four slots per cache line false-shares on
	// work-item-granularity invocation, so the paper's padded layout
	// must be measurably faster.
	run := func(packed bool) sim.Time {
		cfg := platform.DefaultConfig()
		cfg.Seed = 11
		cfg.Genesys.PackedSlots = packed
		m := platform.New(cfg)
		defer m.Shutdown()
		pr := m.NewProcess("app")
		f, _ := m.VFS.Open("/tmp/out", fs.O_CREAT|fs.O_WRONLY)
		fd, _ := pr.FDs.Install(f)
		var runtime sim.Time
		m.E.Spawn("host", func(p *sim.Proc) {
			k := m.GPU.Launch(p, gpu.Kernel{
				Name: "flood", WorkGroups: 8, WGSize: 64,
				Fn: func(w *gpu.Wavefront) {
					m.Genesys.InvokeEach(w, func(lane int) (syscalls.Request, bool) {
						return syscalls.Request{
							NR:   syscalls.SYS_pwrite64,
							Args: [6]uint64{uint64(fd), 16, uint64(16 * w.GlobalWorkItemID(lane))},
							Buf:  make([]byte, 16),
						}, true
					}, core.Options{Blocking: true, Wait: core.WaitPoll})
				},
			})
			k.Wait(p)
			runtime = p.Now()
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return runtime
	}
	padded := run(false)
	packed := run(true)
	if packed <= padded {
		t.Fatalf("packed slots (%v) not slower than padded (%v): false sharing missing",
			packed, padded)
	}
}

func TestSlotStateStringAndIntrospection(t *testing.T) {
	m := newMachine(t, 1)
	if m.Genesys.SlotState(0) != core.SlotFree {
		t.Fatal("initial slot not free")
	}
	states := []core.SlotState{core.SlotFree, core.SlotPopulating, core.SlotReady,
		core.SlotProcessing, core.SlotFinished}
	want := []string{"free", "populating", "ready", "processing", "finished"}
	for i, s := range states {
		if s.String() != want[i] {
			t.Fatalf("state %d = %q", i, s.String())
		}
	}
}
