package blockdev

import (
	"math"
	"testing"

	"genesys/internal/fault"
	"genesys/internal/obs"
	"genesys/internal/sim"
)

// newSSD builds a default device over a fresh observer's event log and
// an injector with an empty plan.
func newSSD(e *sim.Engine) *SSD {
	return New(e, DefaultConfig(), obs.New(0).Events,
		fault.NewInjector(e, 1, fault.Plan{}, func() {}))
}

func TestSingleCommandTiming(t *testing.T) {
	e := sim.NewEngine(1)
	d := newSSD(e)
	var elapsed sim.Time
	e.Spawn("reader", func(p *sim.Proc) {
		start := p.Now()
		d.Read(p, 128<<10)
		elapsed = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := d.Config().CommandOverhead + sim.Time(float64(128<<10)/d.Config().ChannelBandwidth)
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestChannelParallelism(t *testing.T) {
	measure := func(readers int) float64 {
		e := sim.NewEngine(1)
		d := newSSD(e)
		const perReader = 64
		for i := 0; i < readers; i++ {
			e.Spawn("r", func(p *sim.Proc) {
				for j := 0; j < perReader; j++ {
					d.Read(p, 128<<10)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(readers*perReader*(128<<10)) / e.Now().Seconds() / 1e6
	}
	qd1 := measure(1)
	qd8 := measure(8)
	qd16 := measure(16)
	if qd1 < 15 || qd1 > 35 {
		t.Fatalf("QD1 throughput = %.1f MB/s, want ~20-30", qd1)
	}
	if qd8 < 6.5*qd1 {
		t.Fatalf("QD8 = %.1f, QD1 = %.1f: channels not parallel", qd8, qd1)
	}
	if qd16 > qd8*1.2 {
		t.Fatalf("QD16 = %.1f exceeds channel-count ceiling (QD8 = %.1f)", qd16, qd8)
	}
}

func TestThroughputTrace(t *testing.T) {
	e := sim.NewEngine(1)
	d := newSSD(e)
	e.Spawn("r", func(p *sim.Proc) {
		for j := 0; j < 8; j++ {
			d.Read(p, 1<<20)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tr := d.ThroughputTrace()
	var sum float64
	for _, v := range tr {
		sum += v
	}
	if len(tr) == 0 || sum <= 0 {
		t.Fatalf("trace = %v", tr)
	}
	d.ResetStats()
	if d.BytesRead != 0 || len(d.ThroughputTrace()) != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestWriteCounts(t *testing.T) {
	e := sim.NewEngine(1)
	d := newSSD(e)
	e.Spawn("w", func(p *sim.Proc) {
		d.Write(p, 4096)
		d.Read(p, 0) // no-op
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.BytesWritten != 4096 || d.Commands != 1 {
		t.Fatalf("written=%d cmds=%d", d.BytesWritten, d.Commands)
	}
}

// TestThroughputTraceBinsBounded reads 1 MiB every virtual second for
// 2,000 seconds: the trace's 10 ms bins double until it needs at most
// sim.MaxSeriesBins bins, and the bytes it shows are the bytes read.
func TestThroughputTraceBinsBounded(t *testing.T) {
	const reads = 2000
	e := sim.NewEngine(1)
	defer e.Shutdown()
	d := newSSD(e)
	e.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < reads; i++ {
			d.Read(p, 1<<20)
			p.Sleep(sim.Second)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tr := d.ThroughputTrace()
	if len(tr) > sim.MaxSeriesBins || d.trace.BinWidth != 4*traceBin {
		t.Fatalf("%d bins of %v, want at most %d of %v", len(tr), d.trace.BinWidth, sim.MaxSeriesBins, 4*traceBin)
	}
	var bytes float64
	for _, v := range tr {
		bytes += v * d.trace.BinWidth.Seconds() * 1e6
	}
	if want := float64(reads << 20); math.Abs(bytes-want) > 1e-9*want {
		t.Fatalf("trace holds %g bytes, want %g", bytes, want)
	}
}
