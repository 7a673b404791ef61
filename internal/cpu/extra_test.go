package cpu

import (
	"testing"

	"genesys/internal/sim"
)

func TestDefaultsAndAccessors(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cores != 4 || cfg.ClockMHz != 2700 {
		t.Fatalf("defaults = %+v", cfg)
	}
	e := sim.NewEngine(1)
	c := newCPU(e, cfg)
	if c.Config().Cores != 4 || c.Cores().Total() != 4 {
		t.Fatal("accessors")
	}
	if c.MeanUtilization(0) != 0 {
		t.Fatal("mean utilization over empty window")
	}
	// Zero-duration exec is free and does not touch the ledger.
	e.Spawn("t", func(p *sim.Proc) { c.Exec(p, 0, PrioNormal) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.BusyTotal() != 0 {
		t.Fatal("zero exec consumed time")
	}
	// Zero cores panics.
	defer func() {
		if recover() == nil {
			t.Fatal("zero cores did not panic")
		}
	}()
	newCPU(e, Config{Cores: 0})
}

func TestExecChunkedDefaultChunk(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCPU(e, DefaultConfig())
	e.Spawn("t", func(p *sim.Proc) {
		c.ExecChunked(p, 3*sim.Millisecond, 0, PrioNormal) // chunk defaults to 1ms
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.BusyTotal() != 3*sim.Millisecond {
		t.Fatalf("busy = %v", c.BusyTotal())
	}
}
