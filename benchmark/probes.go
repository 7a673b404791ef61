package main

// Layer probes time one public function of a layer in isolation, so a
// change to that layer shows in its probe even when other layers dominate
// a workload's wall time.

import (
	"fmt"
	"runtime"
	"time"

	"genesys/internal/core"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// probe is one layer probe. body performs ops operations and returns how
// many it did, or an error.
type probe struct {
	name string // metric stem, e.g. "sim.probe_callback"
	ms   bool   // report milliseconds instead of nanoseconds
	body func() (ops int, err error)
}

// probeResult is a probe's host time and allocation count per operation.
type probeResult struct {
	perOp  time.Duration
	allocs float64
}

var probes = []probe{
	{name: "sim.probe_callback", body: probeCallback},
	{name: "sim.probe_handoff", body: probeHandoff},
	{name: "sim.probe_timer", body: probeTimer},
	{name: "core.probe_roundtrip", body: probeRoundtrip},
	{name: "netstack.probe_dgram", body: probeDgram},
	{name: "fs.probe_ssd_write", body: probeSSDWrite},
	{name: "obs.probe_hist", body: probeHist},
	{name: "platform.probe_new", ms: true, body: probeNew},
}

// probeRounds is how many times each probe runs; its time is the median.
const probeRounds = 5

// runProbe runs p's body probeRounds times and reports the median time
// and the mean allocations per operation.
func runProbe(p probe) (probeResult, error) {
	var per []float64
	var ms0, ms1 runtime.MemStats
	var mallocs, ops uint64
	for i := 0; i < probeRounds; i++ {
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		n, err := p.body()
		d := time.Since(t)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return probeResult{}, fmt.Errorf("%s: %w", p.name, err)
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
		mallocs += ms1.Mallocs - ms0.Mallocs
		ops += uint64(n)
	}
	return probeResult{
		perOp:  time.Duration(median(per)),
		allocs: float64(mallocs) / float64(ops),
	}, nil
}

// probeCallback chains CallAfter hops: one heap event, no proc switch.
func probeCallback() (int, error) {
	const hops = 200_000
	e := sim.NewEngine(1)
	n := 0
	var step func()
	step = func() {
		if n++; n < hops {
			e.CallAfter(100, step)
		}
	}
	e.CallAfter(100, step)
	return hops, e.Run()
}

// probeHandoff ping-pongs two procs through capacity-1 queues, so every
// operation is a full unblock → ready → goroutine switch round trip.
func probeHandoff() (int, error) {
	const rounds = 20_000
	e := sim.NewEngine(1)
	ping := sim.NewQueue[int](e, "ping", 1)
	pong := sim.NewQueue[int](e, "pong", 1)
	e.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Put(p, i)
			pong.Get(p)
		}
	})
	e.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Get(p)
			pong.Put(p, i)
		}
	})
	return rounds, e.Run()
}

// probeTimer arms and cancels a timer with 10k others pending, the
// client-timeout pattern of the fleet workload.
func probeTimer() (int, error) {
	const pending, ops = 10_000, 200_000
	e := sim.NewEngine(1)
	nop := func() {}
	hold := make([]*sim.Timer, pending)
	for i := range hold {
		hold[i] = e.At(sim.Time(1000+i%1000), nop)
	}
	for i := 0; i < ops; i++ {
		e.At(e.Now()+sim.Time(500+i%1000), nop).Cancel()
	}
	for _, h := range hold {
		h.Cancel()
	}
	return ops, e.Run()
}

// probeRoundtrip is one work-group issuing blocking 64 B pwrites with
// polling waits: the whole GENESYS path per call, on a small machine
// build amortised over many calls.
func probeRoundtrip() (int, error) {
	const calls = 2_000
	m := platform.New(platform.DefaultConfig())
	defer m.Shutdown()
	pr := m.NewProcess("probe")
	f, err := m.VFS.Open("/tmp/probe", fs.O_CREAT|fs.O_WRONLY)
	if err != nil {
		return 0, err
	}
	fd, err := pr.FDs.Install(f)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 64)
	failed := 0
	m.E.Spawn("probe-host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "probe", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				for i := 0; i < calls; i++ {
					res, _ := m.Genesys.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 64, 0},
						Buf:  buf,
					}, core.Options{Blocking: true, Wait: core.WaitPoll,
						Ordering: core.Relaxed, Kind: core.Consumer})
					if res.Ret != 64 {
						failed++
					}
				}
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		return 0, err
	}
	if failed > 0 {
		return 0, fmt.Errorf("%d of %d pwrites failed", failed, calls)
	}
	return calls, nil
}

// probeDgram sends 64 B datagrams in batches and drains them through the
// engine: send, delivery callback, queue, receive, buffer recycle.
func probeDgram() (int, error) {
	const batches, batch = 500, 64
	m := platform.New(platform.DefaultConfig())
	defer m.Shutdown()
	a, b := m.Net.NewSocket(), m.Net.NewSocket()
	if err := a.Bind(9000); err != nil {
		return 0, err
	}
	if err := b.Bind(9001); err != nil {
		return 0, err
	}
	data := make([]byte, 64)
	got := 0
	for i := 0; i < batches; i++ {
		for j := 0; j < batch; j++ {
			if err := a.SendTo(9001, data); err != nil {
				return 0, err
			}
		}
		if err := m.E.Run(); err != nil {
			return 0, err
		}
		for d, ok := b.TryRecv(); ok; d, ok = b.TryRecv() {
			m.Net.PutBuf(d.Data)
			got++
		}
	}
	if got != batches*batch {
		return 0, fmt.Errorf("received %d of %d datagrams", got, batches*batch)
	}
	return got, nil
}

// probeSSDWrite appends 4 KiB pages to fresh files on the SSD filesystem
// through the file layer alone (no device time), the path /data/out takes
// in ssd-rw.
func probeSSDWrite() (int, error) {
	const files, pages = 8, 256
	m := platform.New(platform.DefaultConfig())
	defer m.Shutdown()
	buf := make([]byte, ssdPage)
	for i := 0; i < files; i++ {
		f, err := m.VFS.Open(fmt.Sprintf("/data/probe%d", i), fs.O_CREAT|fs.O_WRONLY)
		if err != nil {
			return 0, err
		}
		for pg := 0; pg < pages; pg++ {
			if _, err := f.Pwrite(&fs.IOCtx{}, buf, int64(pg*ssdPage)); err != nil {
				return 0, err
			}
		}
	}
	return files * pages, nil
}

var histSink float64

// probeHist records latencies into an obs histogram.
func probeHist() (int, error) {
	const adds = 1_000_000
	h := obs.NewHistogram()
	for i := 0; i < adds; i++ {
		h.Add(float64(i%5000) + 0.5)
	}
	histSink = h.Mean()
	return adds, nil
}

// probeNew builds and shuts down a default machine.
func probeNew() (int, error) {
	const machines = 3
	for i := 0; i < machines; i++ {
		platform.New(platform.DefaultConfig()).Shutdown()
	}
	return machines, nil
}
