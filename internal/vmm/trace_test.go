package vmm

import (
	"strings"
	"testing"

	"genesys/internal/sim"
)

func TestRSSTraceFollowsFootprint(t *testing.T) {
	e, as := newAS(1 << 20)
	e.Spawn("app", func(p *sim.Proc) {
		addr, _ := as.Mmap(64 << 20)
		as.Touch(p, addr, 32<<20, false) // 32 MiB resident
		p.Sleep(120 * sim.Millisecond)   // two trace bins at 32 MiB
		as.Madvise(p, addr, 32<<20, MADV_DONTNEED)
		p.Sleep(120 * sim.Millisecond)
		as.Touch(p, addr, 8<<20, false) // back up to 8 MiB
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	bins, width := as.RSSTrace()
	if width != 50*sim.Millisecond {
		t.Fatalf("bin width = %v", width)
	}
	if len(bins) < 4 {
		t.Fatalf("bins = %v", bins)
	}
	if bins[0] != float64(32<<20) {
		t.Fatalf("bin0 = %v, want 32MiB peak", bins[0])
	}
	last := bins[len(bins)-1]
	if last != float64(8<<20) {
		t.Fatalf("final bin = %v, want 8MiB", last)
	}
}

func TestStringSummary(t *testing.T) {
	e, as := newAS(1024)
	e.Spawn("app", func(p *sim.Proc) {
		addr, _ := as.Mmap(4 << 20)
		as.Touch(p, addr, 2<<20, false)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := as.String()
	if !strings.Contains(s, "1 vmas") || !strings.Contains(s, "mapped 4 MiB") ||
		!strings.Contains(s, "rss 2 MiB") {
		t.Fatalf("String() = %q", s)
	}
}

// TestRSSTraceBinsBounded holds 2 MiB resident for 4,000 virtual
// seconds, dropping and re-touching half of it every second. At 50 ms
// bins the trace first coarsens past 3,277 s, so this runs past that:
// the bins double to 100 ms, stay under sim.MaxSeriesBins, and merged
// bins keep their peak (1 MiB where a bin ends between the drop and the
// re-touch) instead of adding up.
func TestRSSTraceBinsBounded(t *testing.T) {
	e, as := newAS(1 << 20)
	defer e.Shutdown()
	e.Spawn("app", func(p *sim.Proc) {
		addr, _ := as.Mmap(2 << 20)
		as.Touch(p, addr, 2<<20, false)
		for i := 0; i < 4000; i++ {
			p.Sleep(sim.Second)
			as.Madvise(p, addr, 1<<20, MADV_DONTNEED)
			as.Touch(p, addr, 1<<20, false)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	bins, width := as.RSSTrace()
	if len(bins) > sim.MaxSeriesBins || width != 100*sim.Millisecond {
		t.Fatalf("%d bins of %v, want at most %d of 100ms", len(bins), width, sim.MaxSeriesBins)
	}
	peaks := 0
	for i, v := range bins {
		switch v {
		case 0, 1 << 20:
		case 2 << 20:
			peaks++
		default:
			t.Fatalf("bin %d = %g, want 0, 1 MiB or 2 MiB", i, v)
		}
	}
	if peaks < 4000 {
		t.Fatalf("%d bins hold 2 MiB, want one per second", peaks)
	}
}
