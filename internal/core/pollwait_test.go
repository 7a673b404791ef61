package core_test

import (
	"fmt"
	"testing"

	"genesys/internal/core"
	"genesys/internal/fault"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// newPollWaitMachine builds the machine for pollWaitKernels: its L2 is
// shrunk below the 256 lines the kernel polls, so polling loads also
// miss. With skip, the worker's scan skips a fifth of the ready slots and
// the retransmit watchdog redelivers them later, so a wavefront's slots
// also finish out of lane order.
func newPollWaitMachine(packed, skip bool) *platform.Machine {
	cfg := platform.DefaultConfig()
	cfg.Seed = 7
	cfg.Mem.L2Lines = 192
	cfg.Genesys.PackedSlots = packed
	if skip {
		cfg.Genesys.RetransmitTimeout = 50 * sim.Microsecond
		cfg.Faults = &fault.Plan{Rules: []fault.Rule{{Point: fault.SlotSkip, Rate: 0.2}}}
	}
	m := platform.New(cfg)
	m.NewProcess("app")
	return m
}

// pollWaitKernels launches n kernels back to back, each one WaitPoll
// work-item-granularity invocation per wavefront over four wavefronts,
// and returns when each wavefront of the last kernel returned from
// InvokeEach. Every lane sleeps on the CPU for a lane-dependent time, so
// one batch worker finishes the lanes one by one and the pollers see
// their slots finish at staggered instants.
func pollWaitKernels(tb testing.TB, m *platform.Machine, n int) (done [4]sim.Time) {
	tb.Helper()
	m.E.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m.GPU.Launch(p, gpu.Kernel{
				Name: "poll-wait", WorkGroups: 4, WGSize: 64,
				Fn: func(w *gpu.Wavefront) {
					res := m.Genesys.InvokeEach(w, func(lane int) (syscalls.Request, bool) {
						ns := uint64((lane*7+w.WG.ID*3)%11+1) * uint64(sim.Microsecond)
						return syscalls.Request{NR: syscalls.SYS_nanosleep, Args: [6]uint64{ns}}, true
					}, core.Options{Blocking: true, Wait: core.WaitPoll})
					for _, r := range res {
						if !r.Ok() {
							panic(fmt.Sprintf("nanosleep = %+v", r))
						}
					}
					done[w.WG.ID] = w.P.Now()
				},
			}).Wait(p)
		}
	})
	if err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	return done
}

type pollWaitRun struct {
	done                  [4]sim.Time
	hits, misses, atomics int64
}

// TestPollWaitExact pins the completion instants and memory-model
// counts of a polled invocation whose slots finish at staggered times,
// with padded and with packed (false-sharing) slots, and with slots
// finishing out of order. The constants were
// taken from the scan that re-read every slot of the wavefront each
// round; a poller that skips slots it has already read finished must
// reproduce them exactly.
func TestPollWaitExact(t *testing.T) {
	for _, tc := range []struct {
		packed, skip bool
		want         pollWaitRun
	}{
		{false, false, pollWaitRun{
			done: [4]sim.Time{909425, 913035, 907975, 912760},
			hits: 1737, misses: 335, atomics: 2072,
		}},
		{true, false, pollWaitRun{
			done: [4]sim.Time{985325, 989735, 983925, 991460},
			hits: 1136, misses: 141, atomics: 1277,
		}},
		{false, true, pollWaitRun{
			done: [4]sim.Time{639550, 638385, 639800, 642985},
			hits: 1209, misses: 166, atomics: 1375,
		}},
	} {
		m := newPollWaitMachine(tc.packed, tc.skip)
		got := pollWaitRun{done: pollWaitKernels(t, m, 1)}
		got.hits, got.misses = m.Mem.L2Hits, m.Mem.L2Misses
		got.atomics = m.Mem.AtomicOps
		m.Shutdown()
		if got != tc.want {
			t.Errorf("packed=%v skip=%v: got %#v, want %#v", tc.packed, tc.skip, got, tc.want)
		}
	}
}

// BenchmarkPollWaitScan measures one kernel of pollWaitKernels (padded
// slots) on a machine built outside the timed loop: 256 polled calls,
// most of whose host time is the poll scan and the engine events it
// schedules.
func BenchmarkPollWaitScan(b *testing.B) {
	m := newPollWaitMachine(false, false)
	defer m.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	pollWaitKernels(b, m, b.N)
}
