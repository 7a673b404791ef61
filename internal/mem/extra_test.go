package mem

import (
	"testing"

	"genesys/internal/sim"
)

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		OpLoad: "load", OpAtomicLoad: "atomic-load",
		OpSwap: "swap", OpCmpSwap: "cmp-swap", Op(99): "unknown-op",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Fatalf("%d.String() = %q", int(op), op.String())
		}
	}
}

func TestWriteLinePollLoadAndAccessors(t *testing.T) {
	e, m := newSys(1)
	var elapsed sim.Time
	e.Spawn("gpu", func(p *sim.Proc) {
		start := p.Now()
		m.GPUWriteLine(p)
		elapsed = p.Now() - start
		m.AddPolledLines(64)
		if m.PolledLines() != 64 {
			t.Error("polled lines accessor")
		}
		m.PollLoad(p) // small working set: pure atomic-load cost
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != m.Config().LineWriteTime {
		t.Fatalf("write line = %v", elapsed)
	}
	if m.AtomicOps != 1 {
		t.Fatalf("atomics = %d", m.AtomicOps)
	}
}

func TestCopyZeroAndInvalidConfig(t *testing.T) {
	e, m := newSys(1)
	e.Spawn("p", func(p *sim.Proc) {
		before := p.Now()
		m.Copy(p, 0) // no-op
		if p.Now() != before {
			t.Error("zero copy cost time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(e, Config{})
}

func TestOpTimePanicsOnUnknown(t *testing.T) {
	_, m := newSys(1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op did not panic")
		}
	}()
	m.OpTime(Op(42))
}
