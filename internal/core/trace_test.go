package core_test

import (
	"strings"
	"testing"

	"genesys/internal/core"
	"genesys/internal/fault"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

func TestTracerBreakdown(t *testing.T) {
	m := newMachine(t, 31)
	pr := m.NewProcess("traced")
	tr := m.Genesys.Tracer()
	f, _ := m.VFS.Open("/tmp/t", fs.O_CREAT|fs.O_WRONLY)
	fd, _ := pr.FDs.Install(f)

	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "traced", WorkGroups: 4, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				// One blocking + one non-blocking per work-group.
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), 8, uint64(16 * w.WG.ID)},
					Buf:  make([]byte, 8),
				}, core.Options{Blocking: true, Wait: core.WaitPoll,
					Ordering: core.Relaxed, Kind: core.Consumer})
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), 8, uint64(16*w.WG.ID + 8)},
					Buf:  make([]byte, 8),
				}, core.Options{Blocking: false, Ordering: core.Relaxed, Kind: core.Consumer})
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Calls() != 8 {
		t.Fatalf("traced calls = %d, want 8", tr.Calls())
	}
	// Every phase has samples and a sensible magnitude.
	var total float64
	for _, ph := range core.Phases() {
		s := tr.Phase(ph)
		if s.N() != 8 {
			t.Fatalf("phase %s has %d samples", ph, s.N())
		}
		if s.Mean() < 0 {
			t.Fatalf("phase %s negative", ph)
		}
		total += s.Mean()
	}
	if diff := total - tr.TotalMean(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("phase sum %f != total %f", total, tr.TotalMean())
	}
	// GPU setup ≈ cmp-swap + store + swap ≈ 4.25us; delivery = 5us irq.
	if m := tr.Phase(core.PhaseGPUSetup).Mean(); m < 4 || m > 5 {
		t.Fatalf("gpu-setup = %.2f us", m)
	}
	if m := tr.Phase(core.PhaseDelivery).Mean(); m < 4.9 || m > 5.1 {
		t.Fatalf("delivery = %.2f us", m)
	}
	// Non-blocking calls report zero completion time; blocking ones pay
	// at least a poll interval, so the mean sits between.
	if m := tr.Phase(core.PhaseCompletion).Mean(); m <= 0 {
		t.Fatalf("completion = %.2f us", m)
	}
	out := tr.String()
	if !strings.Contains(out, "syscall latency breakdown over 8 calls") ||
		!strings.Contains(out, "processing") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestOptionEnumStrings(t *testing.T) {
	if core.Strong.String() != "strong" || core.Relaxed.String() != "relaxed" {
		t.Fatal("ordering strings")
	}
	if core.WaitPoll.String() != "polling" || core.WaitHaltResume.String() != "halt-resume" {
		t.Fatal("wait mode strings")
	}
}

// TestTracerSeesFullyStampedCalls: every call reaches the machine's
// tracer fully stamped, so no trace is skipped and no phase sample is
// negative. enqueueBatch once stamped trace.enqueued only while a tracer
// was attached, and a tracer attached between populate and harvest
// computed 0 - ready: hugely negative delivery-phase samples. Stamps are
// written unconditionally and record() refuses partial traces.
func TestTracerSeesFullyStampedCalls(t *testing.T) {
	m := newMachine(t, 7)
	pr := m.NewProcess("midrun")
	f, _ := m.VFS.Open("/tmp/mid", fs.O_CREAT|fs.O_WRONLY)
	fd, _ := pr.FDs.Install(f)

	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "midrun", WorkGroups: 8, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				for i := 0; i < 4; i++ {
					m.Genesys.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 8, uint64(64*w.WG.ID + 8*i)},
						Buf:  make([]byte, 8),
					}, core.Options{Blocking: true, Wait: core.WaitPoll,
						Ordering: core.Relaxed, Kind: core.Consumer})
				}
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr := m.Genesys.Tracer()
	if tr.Calls() != 32 {
		t.Fatalf("tracer saw %d calls, want 32", tr.Calls())
	}
	if tr.Skipped() != 0 {
		t.Fatalf("%d traces skipped; stamping should be unconditional", tr.Skipped())
	}
	for _, ph := range core.Phases() {
		if min := tr.Phase(ph).Min(); min < 0 {
			t.Fatalf("phase %s has negative sample: min = %f us", ph, min)
		}
	}
	if tr.Total().Min() < 0 {
		t.Fatalf("negative end-to-end sample: %f", tr.Total().Min())
	}
}

// TestTracerRecordsAbortedCalls: EINTR-aborted syscalls used to vanish
// from the tracer entirely (finishTrace hit the incomplete-stamp guard
// and counted them as "skipped"). They must instead land in Aborted(),
// contribute their partial phases, and leave Skipped() at zero.
func TestTracerRecordsAbortedCalls(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.Seed = 11
	cfg.Genesys.RetransmitTimeout = 50 * sim.Microsecond
	cfg.Genesys.MaxRetransmits = 2
	cfg.Faults = &fault.Plan{Name: "total-irq-loss", Rules: []fault.Rule{
		{Point: fault.IRQDrop, Rate: 1},
	}}
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)

	tr := m.Genesys.Tracer()
	pr := m.NewProcess("abort")
	f, _ := m.VFS.Open("/tmp/abort", fs.O_CREAT|fs.O_WRONLY)
	fd, _ := pr.FDs.Install(f)
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "abort", WorkGroups: 4, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				m.Genesys.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), 8, uint64(8 * w.WG.ID)},
					Buf:  make([]byte, 8),
				}, core.Options{Blocking: true, Wait: core.WaitPoll,
					Ordering: core.Relaxed, Kind: core.Consumer})
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	if tr.Aborted() == 0 {
		t.Fatal("total interrupt loss aborted nothing")
	}
	if tr.Skipped() != 0 {
		t.Fatalf("%d aborted traces miscounted as skipped", tr.Skipped())
	}
	if tr.Calls() != 0 {
		t.Fatalf("%d calls completed under total interrupt loss", tr.Calls())
	}
	// Partial phases: gpu-setup completed before the doorbell was lost.
	if tr.Phase(core.PhaseGPUSetup).N() == 0 {
		t.Fatal("aborted calls contributed no gpu-setup samples")
	}
	out := tr.String()
	if !strings.Contains(out, "aborted") {
		t.Fatalf("breakdown does not report aborts:\n%s", out)
	}
}
