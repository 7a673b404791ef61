package oskern

import (
	"testing"

	"genesys/internal/sim"
	"genesys/internal/vmm"
)

// TestWorkerPoolGrowsWhenBlocked: the concurrency-managed-workqueue
// behaviour — tasks that block (e.g. in disk reads) must not cap the
// pool's concurrency, so Enqueue spawns new workers up to MaxWorkers.
func TestWorkerPoolGrowsWhenBlocked(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Workers, cfg.MaxWorkers = 2, 6
	os := newKernel(e, cfg, &vmm.Pool{Total: vmm.DefaultConfig().PhysPages})
	t.Cleanup(e.Shutdown)

	if os.Workers() != 2 {
		t.Fatalf("initial workers = %d", os.Workers())
	}
	block := sim.NewCond(e)
	var concurrent, peak int
	e.Spawn("submitter", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			os.Enqueue(Task{Name: "blocker", Run: func(wp *sim.Proc) {
				concurrent++
				if concurrent > peak {
					peak = concurrent
				}
				block.Wait(wp, "artificial block") // like a disk read
				concurrent--
			}})
			p.Sleep(50 * sim.Microsecond)
		}
		p.Sleep(sim.Millisecond)
		for i := 0; i < 10; i++ {
			block.Broadcast()
			p.Sleep(100 * sim.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if os.Workers() != 6 {
		t.Fatalf("workers grew to %d, want the MaxWorkers cap of 6", os.Workers())
	}
	if peak != 6 {
		t.Fatalf("peak concurrency = %d, want 6 (pool cap)", peak)
	}
	if os.QueueDepth() != 0 {
		t.Fatalf("tasks left behind: %d", os.QueueDepth())
	}
}

func TestMaxWorkersFloor(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Workers, cfg.MaxWorkers = 4, 1 // cap below the floor is raised
	os := newKernel(e, cfg, &vmm.Pool{Total: 1})
	t.Cleanup(e.Shutdown)
	if os.Config().MaxWorkers != 4 {
		t.Fatalf("MaxWorkers = %d, want raised to Workers", os.Config().MaxWorkers)
	}
}
