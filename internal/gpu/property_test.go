package gpu

import (
	"testing"
	"testing/quick"

	"genesys/internal/sim"
)

// TestDispatchProperty: for random grid shapes, every work-item executes
// exactly once, residency never exceeds the hardware wavefront slots, and
// the device ends with all slots free.
func TestDispatchProperty(t *testing.T) {
	f := func(seed int64, wgs, wgSizeRaw uint8) bool {
		workGroups := int(wgs%60) + 1
		wgSize := (int(wgSizeRaw%16) + 1) * 64 // 64..1024
		e := sim.NewEngine(seed)
		d := newDevice(e)

		executed := make(map[int]int)
		resident := 0
		peak := 0
		e.Spawn("host", func(p *sim.Proc) {
			d.Launch(p, Kernel{
				Name: "prop", WorkGroups: workGroups, WGSize: wgSize,
				Fn: func(w *Wavefront) {
					resident++
					if resident > peak {
						peak = resident
					}
					for l := 0; l < w.Lanes; l++ {
						executed[w.GlobalWorkItemID(l)]++
					}
					w.ComputeTime(sim.Time(1+seed%100) * sim.Microsecond)
					resident--
				},
			}).Wait(p)
		})
		if err := e.Run(); err != nil {
			return false
		}
		e.Shutdown()
		if len(executed) != workGroups*wgSize {
			return false
		}
		for _, n := range executed {
			if n != 1 {
				return false
			}
		}
		if peak > d.HWWavefronts() {
			return false
		}
		// All hardware slots vacated.
		for hw := 0; hw < d.HWWavefronts(); hw++ {
			if d.ResidentWave(hw) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierProperty: for random wavefront counts and skews, a barrier
// never lets any wavefront proceed until all have arrived.
func TestBarrierProperty(t *testing.T) {
	f := func(seed int64, wavesRaw uint8) bool {
		waves := int(wavesRaw%15) + 2 // 2..16
		e := sim.NewEngine(seed)
		d := newDevice(e)
		arrivals := make([]sim.Time, 0, waves)
		var releases []sim.Time
		e.Spawn("host", func(p *sim.Proc) {
			d.Launch(p, Kernel{
				Name: "bar", WorkGroups: 1, WGSize: waves * 64,
				Fn: func(w *Wavefront) {
					w.ComputeTime(sim.Time(int64(w.ID)*(seed%50+1)) * sim.Microsecond)
					arrivals = append(arrivals, w.P.Now())
					w.Barrier()
					releases = append(releases, w.P.Now())
				},
			}).Wait(p)
		})
		if err := e.Run(); err != nil {
			return false
		}
		e.Shutdown()
		var lastArrival sim.Time
		for _, a := range arrivals {
			if a > lastArrival {
				lastArrival = a
			}
		}
		for _, r := range releases {
			if r < lastArrival {
				return false
			}
		}
		return len(releases) == waves
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
