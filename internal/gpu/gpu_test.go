package gpu

import (
	"errors"
	"fmt"
	"testing"

	"genesys/internal/obs"
	"genesys/internal/sim"
)

func newDev(seed int64) (*sim.Engine, *Device) {
	e := sim.NewEngine(seed)
	return e, newDevice(e)
}

// newDevice builds a default GPU wired to a fresh observer's event log
// and utilization tracks.
func newDevice(e *sim.Engine) *Device {
	o := obs.New(0)
	u := o.Util
	return New(e, DefaultConfig(), o.Events, u.Track("cus", 0),
		u.Track("waves", 0), u.Track("halted", 0), u.Track("polling", 0))
}

func TestKernelRunsAllWorkItems(t *testing.T) {
	e, d := newDev(1)
	seen := make(map[int]bool)
	var kr *KernelRun
	e.Spawn("host", func(p *sim.Proc) {
		kr = d.Launch(p, Kernel{
			Name:       "count",
			WorkGroups: 10,
			WGSize:     256,
			Fn: func(w *Wavefront) {
				for l := 0; l < w.Lanes; l++ {
					seen[w.GlobalWorkItemID(l)] = true
				}
				w.Compute(100)
			},
		})
		kr.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2560 {
		t.Fatalf("executed %d work-items, want 2560", len(seen))
	}
	for i := 0; i < 2560; i++ {
		if !seen[i] {
			t.Fatalf("work-item %d never executed", i)
		}
	}
	if !kr.Done() || kr.Runtime() <= 0 {
		t.Fatalf("kernel not properly completed: done=%v runtime=%v", kr.Done(), kr.Runtime())
	}
}

func TestPartialWavefront(t *testing.T) {
	e, d := newDev(1)
	var lanes []int
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "partial", WorkGroups: 1, WGSize: 100,
			Fn: func(w *Wavefront) { lanes = append(lanes, w.Lanes) },
		}).Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(lanes) != "[64 36]" {
		t.Fatalf("lanes = %v, want [64 36]", lanes)
	}
}

func TestOccupancyLimitsConcurrency(t *testing.T) {
	// 8 CUs × 40 slots; WGs of 1024 WIs = 16 waves → 2 WGs per CU → 16
	// resident WGs. With 64 WGs each computing 1ms, runtime must be ≥
	// 4 waves of dispatch ≈ 4ms.
	e, d := newDev(1)
	var resident, peak int
	var runtime sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		d.Launch(p, Kernel{
			Name: "occupancy", WorkGroups: 64, WGSize: 1024,
			Fn: func(w *Wavefront) {
				if w.ID == 0 {
					resident++
					if resident > peak {
						peak = resident
					}
				}
				w.ComputeTime(sim.Millisecond)
				if w.ID == 0 {
					resident--
				}
			},
		}).Wait(p)
		runtime = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 16 {
		t.Fatalf("peak resident WGs = %d, want 16", peak)
	}
	if runtime < 4*sim.Millisecond {
		t.Fatalf("runtime = %v, want ≥ 4ms (4 dispatch rounds)", runtime)
	}
}

func TestWorkGroupBarrier(t *testing.T) {
	e, d := newDev(1)
	const groups, waves = 4, 8
	arrived := make([]int, groups) // per work-group arrivals
	left := 0
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "barrier", WorkGroups: groups, WGSize: waves * 64,
			Fn: func(w *Wavefront) {
				w.ComputeTime(sim.Time(w.ID+1) * sim.Microsecond) // skewed arrival
				arrived[w.WG.ID]++
				w.Barrier()
				if n := arrived[w.WG.ID]; n != waves {
					t.Errorf("wg%d/wf%d left the barrier after %d of %d arrivals",
						w.WG.ID, w.ID, n, waves)
				}
				left++
			},
		}).Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if left != groups*waves {
		t.Fatalf("%d wavefronts left the barrier, want %d", left, groups*waves)
	}
}

func TestBroadcastBackToBack(t *testing.T) {
	// Back-to-back broadcasts with no compute between them: the last
	// wavefront to arrive runs on past the barrier before the others
	// read, so the leader often stores its next value before a released
	// wavefront has read the current one. Odd rounds skew arrivals so
	// the leader also arrives first and last.
	const waves, rounds = 4, 8
	for _, size := range []int{64, waves * 64} {
		e, d := newDev(1)
		got := make([][]int, size/64)
		e.Spawn("host", func(p *sim.Proc) {
			d.Launch(p, Kernel{
				Name: "bcast", WorkGroups: 1, WGSize: size,
				Fn: func(w *Wavefront) {
					for r := 0; r < rounds; r++ {
						if r%2 == 1 {
							w.ComputeTime(sim.Time((w.ID+r)%waves) * sim.Microsecond)
						}
						v := -1
						if w.IsLeader() {
							v = 100 + r
						}
						got[w.ID] = append(got[w.ID], Broadcast(w, v))
					}
				},
			}).Wait(p)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for id, vs := range got {
			for r, v := range vs {
				if v != 100+r {
					t.Errorf("%d WIs: wavefront %d got %d in round %d, want %d", size, id, v, r, 100+r)
				}
			}
			if len(vs) != rounds {
				t.Errorf("%d WIs: wavefront %d finished %d rounds, want %d", size, id, len(vs), rounds)
			}
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e, d := newDev(1)
	rounds := 5
	var maxSkew sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "barrier-loop", WorkGroups: 1, WGSize: 256,
			Fn: func(w *Wavefront) {
				for r := 0; r < rounds; r++ {
					w.ComputeTime(sim.Time(w.ID*100) * sim.Nanosecond)
					before := w.P.Now()
					w.Barrier()
					skew := w.P.Now() - before
					if skew > maxSkew {
						maxSkew = skew
					}
				}
			},
		}).Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxSkew == 0 {
		t.Fatal("barrier never caused any wavefront to wait")
	}
}

func TestKernelScopeStrongOrderingDeadlock(t *testing.T) {
	// More work-groups than can be co-resident + a kernel-wide barrier =
	// deadlock (paper §V-A: strong ordering at kernel granularity).
	e, d := newDev(1)
	// Capacity is 16 resident WGs of 1024 WIs; launch 32.
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "global-barrier", WorkGroups: 32, WGSize: 1024,
			Fn: func(w *Wavefront) {
				w.GlobalBarrier()
			},
		}).Wait(p)
	})
	err := e.Run()
	var dl *sim.ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	e.Shutdown()
}

func TestGlobalBarrierWorksWhenResident(t *testing.T) {
	// With all WGs co-resident the kernel-scope barrier completes.
	e, d := newDev(1)
	crossed := 0
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "global-barrier-ok", WorkGroups: 16, WGSize: 1024,
			Fn: func(w *Wavefront) {
				w.GlobalBarrier()
				crossed++
			},
		}).Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if crossed != 16*16 {
		t.Fatalf("crossed = %d, want 256", crossed)
	}
}

func TestHaltResume(t *testing.T) {
	e, d := newDev(1)
	var haltedAt, resumedAt sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "halt", WorkGroups: 1, WGSize: 64,
			Fn: func(w *Wavefront) {
				haltedAt = w.P.Now()
				hw, gen := w.HWSlot, w.Gen
				// Schedule a CPU-side resume 100us from now.
				w.P.Engine().After(100*sim.Microsecond, func() { d.Resume(hw, gen) })
				w.Halt()
				resumedAt = w.P.Now()
			},
		}).Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := haltedAt + 100*sim.Microsecond + d.Config().ResumeLatency
	if resumedAt != want {
		t.Fatalf("resumedAt = %v, want %v", resumedAt, want)
	}
	if d.Halts != 1 || d.Resumes != 1 {
		t.Fatalf("halts=%d resumes=%d", d.Halts, d.Resumes)
	}
}

func TestResumeOfVacatedSlotIsNoop(t *testing.T) {
	e, d := newDev(1)
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "quick", WorkGroups: 1, WGSize: 64,
			Fn: func(w *Wavefront) {},
		}).Wait(p)
		d.Resume(0, d.SlotGeneration(0)) // slot now vacated; must not panic or wake anything
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Resumes != 0 {
		t.Fatal("resume of vacated slot counted")
	}
}

func TestSlotGenerationBumpsOnReuse(t *testing.T) {
	// Two sequential kernels reuse the same hardware wavefront slots;
	// each tenancy must get a distinct, increasing generation.
	e, d := newDev(1)
	gens := make(map[int][]uint64)
	run := func(name string) Kernel {
		return Kernel{
			Name: name, WorkGroups: 2, WGSize: 64,
			Fn: func(w *Wavefront) {
				gens[w.HWSlot] = append(gens[w.HWSlot], w.Gen)
				if got := d.SlotGeneration(w.HWSlot); got != w.Gen {
					t.Errorf("SlotGeneration(%d) = %d, want %d", w.HWSlot, got, w.Gen)
				}
			},
		}
	}
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, run("first")).Wait(p)
		d.Launch(p, run("second")).Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	reused := 0
	for hw, gs := range gens {
		for i := 1; i < len(gs); i++ {
			reused++
			if gs[i] <= gs[i-1] {
				t.Fatalf("hw slot %d generations %v not increasing", hw, gs)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no hardware slot was reused across the two kernels")
	}
}

func TestResumeOfStaleGenerationDropped(t *testing.T) {
	// A Resume carrying a previous tenancy's generation must not wake
	// the halted successor; the correctly-tagged Resume must.
	e, d := newDev(1)
	var haltedAt, resumedAt sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "halt", WorkGroups: 1, WGSize: 64,
			Fn: func(w *Wavefront) {
				haltedAt = w.P.Now()
				hw, gen := w.HWSlot, w.Gen
				eng := w.P.Engine()
				eng.After(50*sim.Microsecond, func() { d.Resume(hw, gen-1) })
				eng.After(100*sim.Microsecond, func() { d.Resume(hw, gen) })
				w.Halt()
				resumedAt = w.P.Now()
			},
		}).Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := haltedAt + 100*sim.Microsecond + d.Config().ResumeLatency
	if resumedAt != want {
		t.Fatalf("resumedAt = %v, want %v (stale-generation resume must be dropped)",
			resumedAt, want)
	}
	if d.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", d.Resumes)
	}
}

func TestRetireHookFiresPerWavefront(t *testing.T) {
	e, d := newDev(1)
	type retirement struct {
		hw  int
		gen uint64
	}
	var retired []retirement
	d.SetRetireHook(func(hw int, gen uint64) {
		retired = append(retired, retirement{hw, gen})
	})
	var started []retirement
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "retire", WorkGroups: 4, WGSize: 256,
			Fn: func(w *Wavefront) {
				started = append(started, retirement{w.HWSlot, w.Gen})
			},
		}).Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(retired) != 4*4 {
		t.Fatalf("retire hook fired %d times, want 16 (one per wavefront)", len(retired))
	}
	want := make(map[retirement]bool)
	for _, s := range started {
		want[s] = true
	}
	for _, r := range retired {
		if !want[r] {
			t.Fatalf("retired (hw=%d gen=%d) never started", r.hw, r.gen)
		}
	}
}

func TestInterruptDelivery(t *testing.T) {
	e, d := newDev(1)
	var gotHW int = -1
	var at sim.Time
	d.SetIRQHandler(func(hw int, gen uint64) { gotHW = hw; at = e.Now() })
	var sentAt sim.Time
	var sentHW int
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "irq", WorkGroups: 1, WGSize: 64,
			Fn: func(w *Wavefront) {
				sentAt = w.P.Now()
				sentHW = w.HWSlot
				w.Interrupt()
			},
		}).Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if gotHW != sentHW {
		t.Fatalf("irq hw = %d, want %d", gotHW, sentHW)
	}
	if at != sentAt+d.Config().InterruptLatency {
		t.Fatalf("irq at %v, want %v", at, sentAt+d.Config().InterruptLatency)
	}
}

func TestHWWorkItemIDsAreUniqueAcrossResidentWaves(t *testing.T) {
	e, d := newDev(1)
	used := make(map[int][]string)
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "hwid", WorkGroups: 16, WGSize: 1024,
			Fn: func(w *Wavefront) {
				for l := 0; l < w.Lanes; l++ {
					id := w.HWWorkItemID(l)
					used[id] = append(used[id], fmt.Sprintf("wg%d/wf%d/l%d", w.WG.ID, w.ID, l))
				}
				w.ComputeTime(sim.Millisecond) // keep all resident together
			},
		}).Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(used) != 16*1024 {
		t.Fatalf("distinct hw ids = %d, want 16384", len(used))
	}
	for id, owners := range used {
		if len(owners) != 1 {
			t.Fatalf("hw id %d claimed by %v", id, owners)
		}
	}
}

func TestHWWorkItemsMatchesPaperSyscallArea(t *testing.T) {
	_, d := newDev(1)
	if d.HWWorkItems() != 20480 {
		t.Fatalf("HWWorkItems = %d, want 20480 (1.25 MiB of 64B slots)", d.HWWorkItems())
	}
}

func TestMultipleKernelsQueue(t *testing.T) {
	e, d := newDev(1)
	var order []string
	e.Spawn("host", func(p *sim.Proc) {
		k1 := d.Launch(p, Kernel{Name: "k1", WorkGroups: 40, WGSize: 1024,
			Fn: func(w *Wavefront) { w.ComputeTime(sim.Millisecond) }})
		k2 := d.Launch(p, Kernel{Name: "k2", WorkGroups: 1, WGSize: 64,
			Fn: func(w *Wavefront) { order = append(order, "k2") }})
		k1.Wait(p)
		order = append(order, "k1done")
		k2.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestCyclesTime(t *testing.T) {
	_, d := newDev(1)
	// 758 cycles at 758 MHz = 1us.
	if got := d.CyclesTime(758); got != sim.Microsecond {
		t.Fatalf("CyclesTime(758) = %v", got)
	}
}

// TestWaitReasonsInDeadlockReport pins the deadlock-report text of every
// GPU wait state: work-group barrier, halt, and kernel-scope barrier.
func TestWaitReasonsInDeadlockReport(t *testing.T) {
	e, d := newDev(1)
	var haltSlot int
	e.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "k", WorkGroups: 1, WGSize: 128,
			Fn: func(w *Wavefront) {
				if w.ID == 0 {
					haltSlot = w.HWSlot
					w.Halt() // never resumed
				}
				w.Barrier()
			},
		}).Wait(p)
	})
	e.Spawn("host2", func(p *sim.Proc) {
		d.Launch(p, Kernel{
			Name: "gb", WorkGroups: 32, WGSize: 1024,
			Fn: func(w *Wavefront) {
				if w.IsKernelLeader() {
					w.GlobalBarrier()
				}
			},
		}).Wait(p)
	})
	var dl *sim.ErrDeadlock
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	want := []string{
		"gb/wg0/wf0 (kernel-scope barrier (gb))",
		"host (kernel k completion)",
		"host2 (kernel gb completion)",
		fmt.Sprintf("k/wg0/wf0 (halted wavefront hw%d)", haltSlot),
		"k/wg0/wf1 (wg barrier (k/wg0))",
	}
	if fmt.Sprint(dl.Blocked) != fmt.Sprint(want) {
		t.Fatalf("blocked = %q\nwant      %q", dl.Blocked, want)
	}
	e.Shutdown()
}
