package oskern

import (
	"strings"
	"testing"

	"genesys/internal/cpu"
	"genesys/internal/fault"
	"genesys/internal/fs"
	"genesys/internal/netstack"
	"genesys/internal/obs"
	"genesys/internal/sim"
	"genesys/internal/vmm"
)

func newOS(t *testing.T) (*sim.Engine, *OS) {
	t.Helper()
	e := sim.NewEngine(1)
	os := newKernel(e, DefaultConfig(), &vmm.Pool{Total: vmm.DefaultConfig().PhysPages})
	t.Cleanup(e.Shutdown)
	return e, os
}

// newKernel builds a kernel over default substrates, all wired to one
// fresh observer and an injector with an empty plan.
func newKernel(e *sim.Engine, cfg Config, pool *vmm.Pool) *OS {
	o := obs.New(0)
	in := fault.NewInjector(e, 1, fault.Plan{}, func() {})
	c := cpu.New(e, cpu.DefaultConfig(), o.Util.Track("cpu.busy", 0), o.Util.Track("cpu.waiting", 0))
	net := netstack.New(e, netstack.DefaultConfig(), o.Events, in)
	return New(e, c, fs.NewVFS(), net, pool, vmm.DefaultConfig(), cfg,
		o.Events, o.Util.Track("oskern.busy", 0), in)
}

func TestWorkqueueRunsTasks(t *testing.T) {
	e, os := newOS(t)
	done := make([]sim.Time, 0, 8)
	e.Spawn("submitter", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			os.Enqueue(Task{Name: "t", Run: func(wp *sim.Proc) {
				os.CPU.Exec(wp, 100*sim.Microsecond, cpu.PrioKernel)
				done = append(done, wp.Now())
			}})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 8 {
		t.Fatalf("tasks run = %d", len(done))
	}
	if os.TasksRun != 8 {
		t.Fatalf("TasksRun = %d", os.TasksRun)
	}
	// 8 tasks × 100us on 3 workers (4 cores): at least 3 waves.
	if last := done[len(done)-1]; last < 270*sim.Microsecond {
		t.Fatalf("last task at %v: worker pool not limited", last)
	}
}

func TestProcessSetup(t *testing.T) {
	_, os := newOS(t)
	pr := os.NewProcess("app")
	if pr.PID != 1 {
		t.Fatalf("pid = %d", pr.PID)
	}
	if pr.FDs.OpenCount() != 3 {
		t.Fatalf("stdio fds = %d", pr.FDs.OpenCount())
	}
	f, err := pr.FDs.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(&fs.IOCtx{}, []byte("to stdout\n")); err != nil {
		t.Fatalf("stdout write: %v", err)
	}
	if os.Console.Contents() != "to stdout\n" {
		t.Fatalf("console = %q", os.Console.Contents())
	}
	if got, ok := os.Lookup(pr.PID); !ok || got != pr {
		t.Fatal("lookup failed")
	}
	if _, ok := os.Lookup(99); ok {
		t.Fatal("lookup of unknown pid succeeded")
	}
}

func TestProcNamespace(t *testing.T) {
	_, os := newOS(t)
	pr := os.NewProcess("myapp")
	f, err := os.VFS.Open("/proc/1/status", fs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, _ := f.Read(&fs.IOCtx{}, buf)
	s := string(buf[:n])
	if !strings.Contains(s, "Name:\tmyapp") || !strings.Contains(s, "Pid:\t1") {
		t.Fatalf("status = %q", s)
	}
	_ = pr

	mi, err := os.VFS.Open("/proc/meminfo", fs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	n, _ = mi.Read(&fs.IOCtx{}, buf)
	if !strings.Contains(string(buf[:n]), "MemTotal:") {
		t.Fatalf("meminfo = %q", buf[:n])
	}
}

func TestDevNamespace(t *testing.T) {
	_, os := newOS(t)
	for _, path := range []string{"/dev/null", "/dev/zero", "/dev/console"} {
		if _, err := os.VFS.Open(path, fs.O_RDWR); err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
	}
	os.AddDevice("custom", fs.NullDev{})
	if _, err := os.VFS.Open("/dev/custom", fs.O_WRONLY); err != nil {
		t.Fatalf("custom device: %v", err)
	}
}

func TestContextSwitchCost(t *testing.T) {
	e, os := newOS(t)
	pr := os.NewProcess("app")
	var elapsed sim.Time
	e.Spawn("worker-sim", func(p *sim.Proc) {
		start := p.Now()
		pr.SwitchTo(p)
		elapsed = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != os.Config().ContextSwitch {
		t.Fatalf("switch cost = %v", elapsed)
	}
}
