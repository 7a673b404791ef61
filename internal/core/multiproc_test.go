package core_test

import (
	"bytes"
	"testing"

	"genesys/internal/core"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// TestTwoProcessesIsolatedContexts runs two GPU applications at once,
// each bound to its own CPU process: identical fd numbers must resolve
// through each process's own descriptor table, and signals must land in
// the right process.
func TestTwoProcessesIsolatedContexts(t *testing.T) {
	m := newMachine(t, 21)
	appA := m.NewProcess("appA") // also the default binding
	appB := m.OS.NewProcess("appB")

	fileA, _ := m.VFS.Open("/tmp/a", fs.O_CREAT|fs.O_RDWR)
	fileB, _ := m.VFS.Open("/tmp/b", fs.O_CREAT|fs.O_RDWR)
	fdA, _ := appA.FDs.Install(fileA)
	fdB, _ := appB.FDs.Install(fileB)
	if fdA != fdB {
		t.Fatalf("test needs identical fd numbers, got %d and %d", fdA, fdB)
	}

	kernel := func(tag byte, fd int, peer int) gpu.Kernel {
		return gpu.Kernel{
			Name: "app" + string(tag), WorkGroups: 4, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				payload := []byte{tag}
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), 1, uint64(w.WG.ID)},
					Buf:  payload,
				}, core.Options{Blocking: true, Wait: core.WaitPoll,
					Ordering: core.Relaxed, Kind: core.Consumer})
				// Signal the peer process.
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_rt_sigqueueinfo,
					Args: [6]uint64{uint64(peer), 34, uint64(w.WG.ID)},
				}, core.Options{Blocking: false, Ordering: core.Relaxed, Kind: core.Consumer})
			},
		}
	}

	m.E.Spawn("hostA", func(p *sim.Proc) {
		kr := m.GPU.Launch(p, kernel('A', fdA, appB.PID))
		kr.Wait(p)
	})
	m.E.Spawn("hostB", func(p *sim.Proc) {
		kr := m.GPU.LaunchAsync(kernel('B', fdB, appA.PID))
		m.Genesys.BindKernel(kr, appB)
		kr.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	a, _ := m.ReadFile("/tmp/a")
	b, _ := m.ReadFile("/tmp/b")
	if string(a) != "AAAA" {
		t.Fatalf("/tmp/a = %q (appA's writes leaked or were misrouted)", a)
	}
	if string(b) != "BBBB" {
		t.Fatalf("/tmp/b = %q (appB's writes misrouted through appA's fd table)", b)
	}
	// Signals: each app signalled the other 4 times, and the sender PID
	// must be the *borrowed* process, not a global one.
	if appA.Sig.Pending() != 4 || appB.Sig.Pending() != 4 {
		t.Fatalf("pending signals: A=%d B=%d", appA.Sig.Pending(), appB.Sig.Pending())
	}
	si, _ := appA.Sig.TryWait()
	if si.Pid != appB.PID {
		t.Fatalf("signal to appA came from pid %d, want %d", si.Pid, appB.PID)
	}
	si, _ = appB.Sig.TryWait()
	if si.Pid != appA.PID {
		t.Fatalf("signal to appB came from pid %d, want %d", si.Pid, appA.PID)
	}
}

// TestOrphanedCallCompletesInOriginalOwner is the slot-reuse regression
// test for generation tagging: a non-blocking syscall is still in flight
// when its wavefront retires, the freed hardware slot is immediately
// reused by a second kernel bound to a *different* process, and the
// orphaned call must still complete in the original owner's context —
// the two processes use identical fd numbers, so any misrouting through
// the new tenant's fd table lands the bytes in the wrong file.
func TestOrphanedCallCompletesInOriginalOwner(t *testing.T) {
	m := newMachine(t, 23)
	appA := m.NewProcess("appA")
	appB := m.OS.NewProcess("appB")

	fileA, _ := m.VFS.Open("/tmp/a", fs.O_CREAT|fs.O_RDWR)
	fileB, _ := m.VFS.Open("/tmp/b", fs.O_CREAT|fs.O_RDWR)
	fdA, _ := appA.FDs.Install(fileA)
	fdB, _ := appB.FDs.Install(fileB)
	if fdA != fdB {
		t.Fatalf("test needs identical fd numbers, got %d and %d", fdA, fdB)
	}

	const sizeA, sizeB = 16 << 10, 512
	outstandingAtK1Done := -1
	var resB core.Result
	m.E.Spawn("host", func(p *sim.Proc) {
		k1 := m.GPU.Launch(p, gpu.Kernel{
			Name: "appA-nb", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fdA), sizeA, 0},
					Buf:  bytes.Repeat([]byte{'a'}, sizeA),
				}, core.Options{Blocking: false, Ordering: core.Relaxed, Kind: core.Consumer})
			},
		})
		k1.Wait(p)
		// The wavefront has retired; its call must still be in flight for
		// the scenario to exercise orphan adoption.
		outstandingAtK1Done = m.Genesys.Outstanding()

		k2 := m.GPU.LaunchAsync(gpu.Kernel{
			Name: "appB-reuse", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
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

	if outstandingAtK1Done != 1 {
		t.Fatalf("outstanding at first-kernel completion = %d, want 1 (call must outlive its wavefront)",
			outstandingAtK1Done)
	}
	if got := m.Genesys.OrphansAdopted; got != 1 {
		t.Fatalf("orphans adopted = %d, want 1", got)
	}
	if got := m.Genesys.OrphansCompleted; got != 1 {
		t.Fatalf("orphans completed = %d, want 1", got)
	}
	if got := m.Genesys.Orphans(); got != 0 {
		t.Fatalf("%d orphans still live after drain", got)
	}
	if !resB.Ok() || resB.Ret != sizeB {
		t.Fatalf("second tenant's call = %+v, want %d-byte write", resB, sizeB)
	}
	a, _ := m.ReadFile("/tmp/a")
	b, _ := m.ReadFile("/tmp/b")
	if len(a) != sizeA || bytes.Contains(a, []byte{'b'}) {
		t.Fatalf("/tmp/a = %d bytes (orphaned write lost or misrouted)", len(a))
	}
	if len(b) != sizeB || bytes.Contains(b, []byte{'a'}) {
		t.Fatalf("/tmp/b = %d bytes (new tenant's write misrouted)", len(b))
	}
}

// TestContextSwitchChargedPerOwnerChange verifies that a batch of slots
// owned by one process pays a single context switch, while interleaved
// owners pay more — the §VI cost the coalescing design amortizes.
func TestContextSwitchChargedPerOwnerChange(t *testing.T) {
	m := newMachine(t, 22)
	appA := m.NewProcess("appA")
	f, _ := m.VFS.Open("/tmp/one", fs.O_CREAT|fs.O_WRONLY)
	fd, _ := appA.FDs.Install(f)

	// Single-owner batch: 8 wavefront calls coalesced into one task.
	m.Genesys.SetCoalescing(200*sim.Microsecond, 8)
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "single", WorkGroups: 8, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), 1, uint64(w.WG.ID)},
					Buf:  []byte{'x'},
				}, core.Options{Blocking: true, Wait: core.WaitPoll,
					Ordering: core.Relaxed, Kind: core.Consumer})
			},
		})
		k.Wait(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Genesys.Batches; got >= 8 {
		t.Fatalf("coalescing produced %d batches for 8 calls", got)
	}
	data, _ := m.ReadFile("/tmp/one")
	if len(data) != 8 {
		t.Fatalf("writes = %d", len(data))
	}
}
