package platform

import (
	"runtime"
	"testing"
)

// newShutdownBytes returns the bytes the heap allocated, per machine, to
// build and shut down n default machines.
func newShutdownBytes(n int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		New(DefaultConfig()).Shutdown()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestMachineNewAllocatesUnder1MiB: a default machine allocates no host
// memory that nothing reads. The 1.25 MiB syscall area's host copy is
// allocated per hardware wavefront at first claim, so building a machine
// that issues no call stays well under 1 MiB (it was 5.18 MB when the
// whole area was allocated up front).
func TestMachineNewAllocatesUnder1MiB(t *testing.T) {
	if b := newShutdownBytes(4); b >= 1<<20 {
		t.Fatalf("platform.New+Shutdown allocates %d bytes, want < 1 MiB", b)
	}
}

// BenchmarkMachineNew reports the host cost of building and shutting
// down one default machine.
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(DefaultConfig()).Shutdown()
	}
}
