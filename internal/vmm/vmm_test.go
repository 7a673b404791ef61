package vmm

import (
	"errors"
	"testing"
	"testing/quick"

	"genesys/internal/errno"
	"genesys/internal/sim"
)

func newAS(physPages int64) (*sim.Engine, *AddressSpace) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.PhysPages = physPages
	pool := &Pool{Total: physPages}
	return e, New(e, cfg, pool)
}

func run(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Spawn("test", fn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMmapIsLazy(t *testing.T) {
	e, as := newAS(1024)
	run(t, e, func(p *sim.Proc) {
		addr, err := as.Mmap(1 << 20) // 256 pages
		if err != nil {
			t.Errorf("mmap: %v", err)
		}
		if as.RSSBytes() != 0 {
			t.Errorf("rss after mmap = %d, want 0 (lazy)", as.RSSBytes())
		}
		if err := as.Touch(p, addr, 8192, false); err != nil {
			t.Errorf("touch: %v", err)
		}
		if as.RSSBytes() != 8192 {
			t.Errorf("rss after touching 2 pages = %d", as.RSSBytes())
		}
		if as.MinorFaults != 2 {
			t.Errorf("minor faults = %d", as.MinorFaults)
		}
	})
}

func TestTouchIsIdempotent(t *testing.T) {
	e, as := newAS(1024)
	run(t, e, func(p *sim.Proc) {
		addr, _ := as.Mmap(1 << 20)
		as.Touch(p, addr, 4096, false)
		before := p.Now()
		as.Touch(p, addr, 4096, false) // already present: free
		if p.Now() != before {
			t.Error("touching a present page cost time")
		}
		if as.MinorFaults != 1 {
			t.Errorf("faults = %d", as.MinorFaults)
		}
	})
}

func TestMadviseDontneedReleasesPages(t *testing.T) {
	e, as := newAS(1024)
	run(t, e, func(p *sim.Proc) {
		addr, _ := as.Mmap(64 << 10) // 16 pages
		as.Touch(p, addr, 64<<10, false)
		if as.Pool().Used() != 16 {
			t.Fatalf("pool used = %d", as.Pool().Used())
		}
		if err := as.Madvise(p, addr, 32<<10, MADV_DONTNEED); err != nil {
			t.Fatal(err)
		}
		if as.RSSBytes() != 32<<10 || as.Pool().Used() != 8 {
			t.Fatalf("rss=%d pool=%d after DONTNEED of half", as.RSSBytes(), as.Pool().Used())
		}
		// Re-touch: minor (zero-fill) fault, not major — content discarded.
		major := as.MajorFaults
		as.Touch(p, addr, 4096, false)
		if as.MajorFaults != major {
			t.Error("DONTNEED page refaulted as major")
		}
	})
}

func TestEvictionAndMajorFaults(t *testing.T) {
	e, as := newAS(8) // tiny pool: 8 pages
	run(t, e, func(p *sim.Proc) {
		addr, _ := as.Mmap(16 * 4096)
		// Touch 16 pages one by one: the last 8 evict the first 8.
		for i := int64(0); i < 16; i++ {
			if err := as.Touch(p, addr+uint64(i*4096), 4096, false); err != nil {
				t.Fatalf("touch %d: %v", i, err)
			}
		}
		if as.SwapOuts != 8 {
			t.Fatalf("swap-outs = %d, want 8", as.SwapOuts)
		}
		if as.RSSBytes() != 8*4096 {
			t.Fatalf("rss = %d", as.RSSBytes())
		}
		// Touching an evicted page is a major fault.
		if err := as.Touch(p, addr, 4096, false); err != nil {
			t.Fatal(err)
		}
		if as.MajorFaults != 1 {
			t.Fatalf("major faults = %d", as.MajorFaults)
		}
	})
}

func TestGPUWatchdogTimeout(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.PhysPages = 256
	cfg.GPUWatchdog = 100 * sim.Millisecond
	as := New(e, cfg, &Pool{Total: 256})
	run(t, e, func(p *sim.Proc) {
		// Fill the pool, then fault a huge range from the "GPU": the swap
		// storm exceeds the watchdog.
		a1, _ := as.Mmap(256 * 4096)
		as.Touch(p, a1, 256*4096, false)
		a2, _ := as.Mmap(8 << 20) // 2048 pages, all requiring eviction
		err := as.Touch(p, a2, 8<<20, true)
		if !errors.Is(err, ErrGPUTimeout) {
			t.Fatalf("err = %v, want GPU timeout", err)
		}
	})
}

func TestMunmapFreesPool(t *testing.T) {
	e, as := newAS(1024)
	run(t, e, func(p *sim.Proc) {
		addr, _ := as.Mmap(64 << 10)
		as.Touch(p, addr, 64<<10, false)
		if err := as.Munmap(p, addr, 64<<10); err != nil {
			t.Fatal(err)
		}
		if as.Pool().Used() != 0 || as.RSSBytes() != 0 {
			t.Fatalf("pool=%d rss=%d after munmap", as.Pool().Used(), as.RSSBytes())
		}
		if err := as.Touch(p, addr, 4096, false); err != errno.EFAULT {
			t.Fatalf("touch after munmap = %v", err)
		}
	})
}

func TestDeviceMappingNotPaged(t *testing.T) {
	e, as := newAS(4)
	run(t, e, func(p *sim.Proc) {
		dev := make([]byte, 1<<20)
		addr, err := as.MmapDevice(dev)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.Touch(p, addr, 1<<20, true); err != nil {
			t.Fatalf("device touch: %v", err)
		}
		if as.RSSBytes() != 0 {
			t.Fatal("device mapping consumed pool pages")
		}
		v, _ := as.FindVMA(addr)
		if v.Device == nil {
			t.Fatal("device backing lost")
		}
		if err := as.Madvise(p, addr, 4096, MADV_DONTNEED); err != errno.EINVAL {
			t.Fatalf("madvise on device mapping = %v", err)
		}
	})
}

func TestUsage(t *testing.T) {
	e, as := newAS(1024)
	run(t, e, func(p *sim.Proc) {
		addr, _ := as.Mmap(64 << 10)
		as.Touch(p, addr, 64<<10, false)
		as.Madvise(p, addr, 64<<10, MADV_DONTNEED)
		u := as.Usage()
		if u.MaxRSSBytes != 64<<10 || u.RSSBytes != 0 || u.MinorFaults != 16 {
			t.Fatalf("usage = %+v", u)
		}
	})
}

func TestBadAddresses(t *testing.T) {
	e, as := newAS(16)
	run(t, e, func(p *sim.Proc) {
		if _, err := as.Mmap(0); err != errno.EINVAL {
			t.Fatalf("mmap(0) = %v", err)
		}
		if err := as.Touch(p, 0xdead, 4096, false); err != errno.EFAULT {
			t.Fatalf("touch unmapped = %v", err)
		}
		if err := as.Munmap(p, 0xdead, 4096); err != errno.EINVAL {
			t.Fatalf("munmap unmapped = %v", err)
		}
		addr, _ := as.Mmap(4096)
		if err := as.Touch(p, addr, 8192, false); err != errno.EFAULT {
			t.Fatalf("touch past end = %v", err)
		}
	})
}

// Property: pool accounting is conserved — used pages always equal the
// address space's RSS pages, and never exceed the pool, across random
// mmap/touch/madvise/munmap sequences.
func TestPoolAccountingInvariant(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		e := sim.NewEngine(seed)
		defer e.Shutdown()
		cfg := DefaultConfig()
		cfg.PhysPages = 32
		pool := &Pool{Total: 32}
		as := New(e, cfg, pool)
		ok := true
		e.Spawn("fuzz", func(p *sim.Proc) {
			var addrs []uint64
			var sizes []int64
			for _, op := range ops {
				switch op % 4 {
				case 0:
					size := int64(op%7+1) * 4096
					if a, err := as.Mmap(size); err == nil {
						addrs = append(addrs, a)
						sizes = append(sizes, size)
					}
				case 1:
					if len(addrs) > 0 {
						i := int(op) % len(addrs)
						as.Touch(p, addrs[i], sizes[i], false)
					}
				case 2:
					if len(addrs) > 0 {
						i := int(op) % len(addrs)
						as.Madvise(p, addrs[i], sizes[i], MADV_DONTNEED)
					}
				case 3:
					if len(addrs) > 0 {
						i := int(op) % len(addrs)
						as.Munmap(p, addrs[i], sizes[i])
						addrs = append(addrs[:i], addrs[i+1:]...)
						sizes = append(sizes[:i], sizes[i+1:]...)
					}
				}
				if pool.Used() != as.RSSBytes()/4096 || pool.Used() > pool.Total || pool.Used() < 0 {
					ok = false
					return
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
