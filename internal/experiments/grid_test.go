package experiments

import (
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"genesys/internal/fault"
	"genesys/internal/platform"
	"genesys/internal/sim"
)

// TestExperimentTablesParallelEqualSequential: every experiment renders
// byte-identical tables at two seeds whether its data points run one at
// a time or four at once. Under -short, Figures 7 and 10 (256 MiB pread
// sweeps) are left out. Under the race detector, whose state grows with
// every goroutine a test binary ever starts (one per pooled proc
// coroutine, so each machine adds its peak of live procs), only the
// concurrent pass runs, at one seed, and Figures 7 and 10 are left out;
// the ablation study still runs the pread workload concurrently.
func TestExperimentTablesParallelEqualSequential(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			fn, _ := ByID(id)
			heavy := id == "fig7" || id == "fig10"
			switch {
			case raceOn && heavy:
				t.Skip("race-detector memory")
			case raceOn:
				fn(Options{Runs: 1, BaseSeed: 1, Parallel: 4})
				return
			case heavy && testing.Short():
				t.Skip("256 MiB pread sweeps")
			}
			seq := fn(Options{Runs: 2, BaseSeed: 1, Parallel: 1}).Render()
			par := fn(Options{Runs: 2, BaseSeed: 1, Parallel: 4}).Render()
			if seq != par {
				t.Fatalf("parallel 4 differs from parallel 1:\n%s\nvs\n%s", par, seq)
			}
		})
	}
}

// machineSig is what TestObserveAfterFinishInOrder records of each
// machine Observe gets: enough to tell the data points apart.
type machineSig struct {
	seed              int64
	maxWorkers        int
	irq, now          sim.Time
	packed, finished  bool
	traced, recording bool
}

// TestObserveAfterFinishInOrder: Observe gets every machine a driver
// builds, once, in submission order, each already run and shut down, on
// any number of workers; TraceFirst records the first machine's timeline
// only. A hook shaped like the host benchmark's, which reads a machine
// when the next one arrives, sums the same invocation count at both
// parallelisms.
func TestObserveAfterFinishInOrder(t *testing.T) {
	drivers := []struct {
		fn       func(Options) *Table
		machines int // data points × 2 seeds
	}{
		{Breakdown, 6 * 2},
		{Ablation, 9 * 2},
		{Fig12SignalSearch, 2 * 2},
		{Chaos, (1 + 6*len(chaosRates)) * 2},
	}
	observe := func(parallel int) ([][]machineSig, int64) {
		var sigs [][]machineSig
		var total int64
		var cur *platform.Machine
		flush := func() {
			if cur != nil {
				total += cur.Obs.Metrics.Snapshot()["genesys.invocations"]
				cur = nil
			}
		}
		o := Options{Runs: 2, BaseSeed: 1, Parallel: parallel, TraceFirst: true}
		for _, d := range drivers {
			var got []machineSig
			o.Observe = func(m *platform.Machine) {
				flush()
				cur = m
				got = append(got, machineSig{
					seed: m.Cfg.Seed, maxWorkers: m.Cfg.Kernel.MaxWorkers,
					irq: m.Cfg.GPU.InterruptLatency, now: m.E.Now(),
					packed:    m.Cfg.Genesys.PackedSlots,
					finished:  m.E.Pending() == 0 && m.E.LiveProcs() == 0 && m.E.Now() > 0,
					traced:    m.Obs.Events.Len() > 0,
					recording: m.Obs.Events.Enabled(),
				})
			}
			d.fn(o)
			sigs = append(sigs, got)
		}
		flush()
		return sigs, total
	}
	seq, seqTotal := observe(1)
	par, parTotal := observe(4)
	for d, got := range seq {
		if len(got) != drivers[d].machines {
			t.Fatalf("driver %d: Observe got %d machines, want %d", d, len(got), drivers[d].machines)
		}
		// Points are submitted config by config, seeds innermost.
		if got[0].seed != 1 || got[1].seed != 2 || got[2].seed != 1 {
			t.Fatalf("driver %d: machines not observed in submission order: %+v", d, got[:3])
		}
		for i, s := range got {
			if !s.finished {
				t.Fatalf("driver %d: machine %d observed before it finished: %+v", d, i, s)
			}
			if first := i == 0; s.recording != first || s.traced != first {
				t.Fatalf("driver %d: machine %d recording %v, holding events %v; want both %v",
					d, i, s.recording, s.traced, first)
			}
		}
		if !slices.Equal(got, par[d]) {
			t.Fatalf("driver %d: parallel 4 observed machines differently:\n%+v\nvs\n%+v", d, par[d], got)
		}
	}
	if seqTotal == 0 || seqTotal != parTotal {
		t.Fatalf("genesys.invocations summed %d at parallel 1 and %d at parallel 4", seqTotal, parTotal)
	}
}

// TestBreakdownMachinesKeepOptions: every breakdown machine, the
// discrete-GPU ones included, carries its point's seed, the run's fault
// plan and event cap; only the discrete-GPU rows change the GPU and
// memory model.
func TestBreakdownMachinesKeepOptions(t *testing.T) {
	const profile, rate, eventCap = "worker-stall", 0.2, 32
	plan, err := fault.PlanFor(profile, rate)
	if err != nil {
		t.Fatal(err)
	}
	dgpu := platform.DiscreteGPUConfig()
	var cfgs []platform.Config
	Breakdown(Options{Runs: 2, BaseSeed: 5, FaultProfile: profile, FaultRate: rate,
		EventCap: eventCap, Observe: func(m *platform.Machine) { cfgs = append(cfgs, m.Cfg) }})
	if len(cfgs) != 6*2 {
		t.Fatalf("Observe got %d machines, want 12", len(cfgs))
	}
	for i, c := range cfgs {
		if want := int64(5 + i%2); c.Seed != want {
			t.Errorf("machine %d: seed %d, want %d", i, c.Seed, want)
		}
		if !reflect.DeepEqual(c.Faults, &plan) {
			t.Errorf("machine %d: fault plan %+v, want %+v", i, c.Faults, plan)
		}
		if c.EventCap != eventCap {
			t.Errorf("machine %d: event cap %d, want %d", i, c.EventCap, eventCap)
		}
		discrete := i >= 4*2
		if got := c.GPU == dgpu.GPU && c.Mem == dgpu.Mem; got != discrete {
			t.Errorf("machine %d: discrete GPU and memory %v, want %v", i, got, discrete)
		}
	}
}

// TestForEachDoneInOrder: the pool runs every unit once, calls done on
// the caller's goroutine in index order only after that unit and every
// earlier one finished, and never has more than 2×workers units started
// and not yet done.
func TestForEachDoneInOrder(t *testing.T) {
	const n, workers = 200, 3
	var finished [n]atomic.Bool
	var started, doneCount, peak atomic.Int64
	var order []int
	forEach(n, workers, func(i int) {
		if k := started.Add(1) - doneCount.Load(); k > peak.Load() {
			peak.Store(k)
		}
		for j := 0; j < (n-i)%7; j++ {
			runtime.Gosched() // uneven unit lengths, so units finish out of order
		}
		if finished[i].Swap(true) {
			t.Errorf("unit %d ran twice", i)
		}
	}, func(i int) {
		for j := 0; j <= i; j++ {
			if !finished[j].Load() {
				t.Errorf("done(%d) before unit %d finished", i, j)
			}
		}
		order = append(order, i)
		doneCount.Add(1)
	})
	if len(order) != n || !slices.IsSorted(order) {
		t.Fatalf("done called for %d units, in order %v", len(order), order)
	}
	if p := peak.Load(); p > 2*workers {
		t.Fatalf("%d units started and not yet done, want at most %d", p, 2*workers)
	}
}
