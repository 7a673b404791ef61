package mem

import (
	"testing"
	"testing/quick"

	"genesys/internal/sim"
)

func newSys(seed int64) (*sim.Engine, *System) {
	e := sim.NewEngine(seed)
	return e, New(e, DefaultConfig())
}

func TestOpLatencyOrdering(t *testing.T) {
	_, m := newSys(1)
	// Table IV: cmp-swap > swap > atomic-load >> load.
	if !(m.OpTime(OpCmpSwap) > m.OpTime(OpSwap) &&
		m.OpTime(OpSwap) > m.OpTime(OpAtomicLoad) &&
		m.OpTime(OpAtomicLoad) > 10*m.OpTime(OpLoad)) {
		t.Fatalf("latency ordering violated: cmp-swap=%v swap=%v atomic-load=%v load=%v",
			m.OpTime(OpCmpSwap), m.OpTime(OpSwap), m.OpTime(OpAtomicLoad), m.OpTime(OpLoad))
	}
}

func TestGPUAtomicCost(t *testing.T) {
	e, m := newSys(1)
	var elapsed sim.Time
	e.Spawn("gpu", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 100; i++ {
			m.GPUAtomic(p, OpCmpSwap, 0) // small working set: all L2 hits
		}
		elapsed = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := 100 * m.OpTime(OpCmpSwap)
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if m.L2Misses != 0 {
		t.Fatalf("unexpected L2 misses: %d", m.L2Misses)
	}
}

func TestL2CapacityKnee(t *testing.T) {
	// Working sets within L2 capacity never miss; beyond it, misses occur
	// in proportion to the overflow.
	e, m := newSys(7)
	e.Spawn("gpu", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			m.GPULoad(p, m.Config().L2Lines) // exactly capacity: all hits
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.L2Misses != 0 {
		t.Fatalf("misses within capacity: %d", m.L2Misses)
	}

	e2, m2 := newSys(7)
	e2.Spawn("gpu", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			m2.GPULoad(p, 4*m2.Config().L2Lines) // 4x capacity: ~75% miss
		}
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	missRate := float64(m2.L2Misses) / 500
	if missRate < 0.6 || missRate > 0.9 {
		t.Fatalf("miss rate at 4x capacity = %.2f, want ~0.75", missRate)
	}
}

func TestDRAMContention(t *testing.T) {
	// The controller has a finite service rate: aggregate throughput of
	// many concurrent streams saturates well below linear scaling.
	measure := func(nProcs int) float64 {
		e, m := newSys(3)
		const accessesPer = 2000
		for i := 0; i < nProcs; i++ {
			e.Spawn("probe", func(p *sim.Proc) {
				for j := 0; j < accessesPer; j++ {
					m.CPUAccess(p)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(nProcs*accessesPer) / e.Now().Seconds()
	}
	solo := measure(1)
	agg16 := measure(16)
	ceiling := 1 / sim.Time(DefaultConfig().DRAMServiceTime).Seconds()
	if agg16 > ceiling*1.05 {
		t.Fatalf("aggregate throughput %0.f exceeds controller ceiling %.0f", agg16, ceiling)
	}
	if agg16 > 12*solo {
		t.Fatalf("16 streams scale ~linearly (solo=%.0f agg16=%.0f): no contention", solo, agg16)
	}
}

func TestPolledLinesRegistry(t *testing.T) {
	_, m := newSys(1)
	if got := m.AddPolledLines(100); got != 100 {
		t.Fatalf("AddPolledLines = %d", got)
	}
	if got := m.AddPolledLines(-150); got != 0 {
		t.Fatalf("negative clamp = %d", got)
	}
}

func TestCopyOccupiesController(t *testing.T) {
	e, m := newSys(1)
	var t1, t2 sim.Time
	e.Spawn("copier", func(p *sim.Proc) {
		m.Copy(p, 1<<20) // 1 MiB at 12.8 B/ns ≈ 82 us
		t1 = p.Now()
	})
	e.Spawn("victim", func(p *sim.Proc) {
		p.Sleep(1) // start just after the copier
		m.CPUAccess(p)
		t2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t2 <= t1-m.Config().DRAMAccessTime {
		t.Fatalf("victim access (t=%v) did not queue behind 1MiB copy (t=%v)", t2, t1)
	}
}

// Property: miss decisions never occur for working sets at or below L2
// capacity, for any working-set size and seed.
func TestNoMissWithinCapacityProperty(t *testing.T) {
	f := func(seed int64, ws uint16) bool {
		e, m := newSys(seed)
		defer e.Shutdown()
		capped := int(ws)
		if capped > m.Config().L2Lines {
			capped = m.Config().L2Lines
		}
		ok := true
		e.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				m.GPULoad(p, capped)
			}
			ok = m.L2Misses == 0
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
