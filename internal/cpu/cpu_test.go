package cpu

import (
	"testing"

	"genesys/internal/obs"
	"genesys/internal/sim"
)

// newCPU builds a CPU with occupancy tracks from a fresh observer.
func newCPU(e *sim.Engine, cfg Config) *CPU {
	u := obs.New(0).Util
	return New(e, cfg, u.Track("busy", 0), u.Track("waiting", 0))
}

func TestExecSerializesOnOneCore(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCPU(e, Config{Cores: 1, ClockMHz: 2700})
	var done []sim.Time
	for i := 0; i < 3; i++ {
		e.Spawn("t", func(p *sim.Proc) {
			c.Exec(p, 100*sim.Microsecond, PrioNormal)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{100 * sim.Microsecond, 200 * sim.Microsecond, 300 * sim.Microsecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestExecParallelAcrossCores(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCPU(e, Config{Cores: 4, ClockMHz: 2700})
	for i := 0; i < 4; i++ {
		e.Spawn("t", func(p *sim.Proc) {
			c.Exec(p, sim.Millisecond, PrioNormal)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != sim.Millisecond {
		t.Fatalf("4 threads on 4 cores took %v, want 1ms", e.Now())
	}
	if c.BusyTotal() != 4*sim.Millisecond {
		t.Fatalf("busy total = %v, want 4ms", c.BusyTotal())
	}
	if got := c.MeanUtilization(2 * sim.Millisecond); got != 50 {
		t.Fatalf("mean utilization over 2ms = %v, want 50", got)
	}
}

func TestPriorityPreference(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCPU(e, Config{Cores: 1, ClockMHz: 2700})
	var order []string
	// Occupy the core, then queue a normal and a kernel-priority thread.
	e.Spawn("hog", func(p *sim.Proc) {
		c.Exec(p, 100*sim.Microsecond, PrioNormal)
	})
	e.Spawn("normal", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c.Exec(p, 10*sim.Microsecond, PrioNormal)
		order = append(order, "normal")
	})
	e.Spawn("kernel", func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond) // arrives later but outranks "normal"
		c.Exec(p, 10*sim.Microsecond, PrioKernel)
		order = append(order, "kernel")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "kernel" {
		t.Fatalf("order = %v, want kernel first", order)
	}
}

func TestExecChunkedFairness(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCPU(e, Config{Cores: 1, ClockMHz: 2700})
	var aDone, bDone sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		c.ExecChunked(p, 10*sim.Millisecond, sim.Millisecond, PrioNormal)
		aDone = p.Now()
	})
	e.Spawn("b", func(p *sim.Proc) {
		c.ExecChunked(p, 10*sim.Millisecond, sim.Millisecond, PrioNormal)
		bDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Interleaved: both finish near 20ms rather than one at 10ms.
	if aDone < 18*sim.Millisecond || bDone < 18*sim.Millisecond {
		t.Fatalf("aDone=%v bDone=%v: chunked exec did not interleave", aDone, bDone)
	}
}

func TestCyclesTime(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCPU(e, Config{Cores: 1, ClockMHz: 2700})
	// 2700 cycles at 2.7 GHz = 1 us.
	if got := c.CyclesTime(2700); got != sim.Microsecond {
		t.Fatalf("CyclesTime(2700) = %v, want 1us", got)
	}
}
