package core_test

import (
	"strings"
	"testing"
	"unsafe"

	"genesys/internal/core"
	"genesys/internal/gpu"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// TestSlotChunksAllocatedOnFirstClaim: the host copy of the syscall area
// is allocated one hardware wavefront's chunk at a time, when one of its
// slots is first claimed. A machine whose kernels issue no GENESYS call
// allocates no chunk (and checkpoints as before); a kernel that does
// allocates one chunk per hardware wavefront that invoked, and a replay
// injection into an untouched wavefront allocates one more.
func TestSlotChunksAllocatedOnFirstClaim(t *testing.T) {
	m := newMachine(t, 1)
	m.NewProcess("app")
	g := m.Genesys
	m.E.Spawn("host", func(p *sim.Proc) {
		m.GPU.Launch(p, gpu.Kernel{
			Name: "compute", WorkGroups: 4, WGSize: 64,
			Fn: func(w *gpu.Wavefront) { w.ComputeTime(sim.Microsecond) },
		}).Wait(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if n := g.SlotChunks(); n != 0 {
		t.Fatalf("%d slot chunks after a kernel with no GENESYS call, want 0", n)
	}
	if ck := string(g.CheckpointState()); !strings.Contains(ck, "slots 20480 busy 0\n") {
		t.Fatalf("checkpoint of an untouched area:\n%s", ck)
	}

	waves := map[int]bool{}
	m.E.Spawn("host", func(p *sim.Proc) {
		m.GPU.Launch(p, gpu.Kernel{
			Name: "getpid", WorkGroups: 3, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				waves[w.HWSlot] = true
				g.Invoke(w, syscalls.Request{NR: syscalls.SYS_getpid},
					core.Options{Blocking: true, Wait: core.WaitPoll})
			},
		}).Wait(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if n := g.SlotChunks(); n != len(waves) || n == 0 {
		t.Fatalf("%d slot chunks after invocations from %d hardware wavefronts", n, len(waves))
	}

	last := g.AreaBytes()/64 - 1
	if waves[last/m.Cfg.GPU.SIMDWidth] {
		t.Fatal("the last hardware wavefront already invoked; pick another slot")
	}
	before := g.SlotChunks()
	if err := g.InjectReady(last, 1, syscalls.Request{NR: syscalls.SYS_getpid}); err != nil {
		t.Fatal(err)
	}
	g.RingDoorbell(last/m.Cfg.GPU.SIMDWidth, 1)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if n := g.SlotChunks(); n != before+1 {
		t.Fatalf("%d slot chunks after one injection, want %d", n, before+1)
	}
}

// TestSlotChunkFillsSizeClass: a 64-slot chunk of 224-byte slots is
// 14,336 bytes, a Go allocation size class; one more word per slot and
// every chunk rounds up to 16 KiB.
func TestSlotChunkFillsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(core.Slot{}); sz != 224 {
		t.Fatalf("Slot is %d bytes, want 224 (64 of them fill the 14,336-byte size class)", sz)
	}
}
