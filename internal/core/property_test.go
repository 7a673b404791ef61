package core_test

import (
	"testing"
	"testing/quick"

	"genesys/internal/core"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// TestSlotMachineQuiescenceProperty drives GENESYS with a randomized mix
// of invocation granularities, blocking modes, wait modes, orderings and
// coalescing settings, and checks the state-machine invariants the design
// relies on (Figure 6):
//
//  1. after drain, every slot is back to free;
//  2. the outstanding counter returns to zero;
//  3. every blocking call returned success;
//  4. every written byte is where pwrite put it.
func TestSlotMachineQuiescenceProperty(t *testing.T) {
	f := func(seed int64, mix []uint8) bool {
		if len(mix) == 0 {
			return true
		}
		if len(mix) > 24 {
			mix = mix[:24]
		}
		cfg := platform.DefaultConfig()
		cfg.Seed = seed
		m := platform.New(cfg)
		defer m.Shutdown()
		pr := m.NewProcess("fuzz")
		// Randomize coalescing from the seed.
		if seed%2 == 0 {
			m.Genesys.SetCoalescing(sim.Time(20+seed%80)*sim.Microsecond, int(2+seed%8))
		}
		file, err := m.VFS.Open("/tmp/fuzz", fs.O_CREAT|fs.O_RDWR)
		if err != nil {
			return false
		}
		fd, _ := pr.FDs.Install(file)

		okAll := true
		m.E.Spawn("host", func(p *sim.Proc) {
			k := m.GPU.Launch(p, gpu.Kernel{
				Name: "fuzz", WorkGroups: len(mix), WGSize: 128,
				Fn: func(w *gpu.Wavefront) {
					op := mix[w.WG.ID]
					blocking := op&1 == 0
					wait := core.WaitPoll
					if op&2 != 0 {
						wait = core.WaitHaltResume
					}
					ordering := core.Strong
					if op&4 != 0 {
						ordering = core.Relaxed
					}
					payload := []byte{byte(w.WG.ID)}
					req := syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 1, uint64(w.WG.ID)},
						Buf:  payload,
					}
					opts := core.Options{Blocking: blocking, Wait: wait,
						Ordering: ordering, Kind: core.Consumer}
					switch op % 3 {
					case 0: // work-group granularity
						if r, inv := m.Genesys.InvokeWG(w, req, opts); inv && blocking && !r.Ok() {
							okAll = false
						}
					case 1: // single-wavefront invocation
						if w.IsLeader() {
							r := m.Genesys.Invoke(w, req, opts)
							if blocking && !r.Ok() {
								okAll = false
							}
						}
					case 2: // work-item granularity: two lanes write two bytes
						if w.IsLeader() {
							rs := m.Genesys.InvokeEach(w, func(lane int) (syscalls.Request, bool) {
								if lane > 1 {
									return syscalls.Request{}, false
								}
								return syscalls.Request{
									NR:   syscalls.SYS_pwrite64,
									Args: [6]uint64{uint64(fd), 1, uint64(w.WG.ID)},
									Buf:  payload,
								}, true
							}, core.Options{Blocking: blocking, Wait: wait})
							if blocking {
								for _, r := range rs {
									if !r.Ok() {
										okAll = false
									}
								}
							}
						}
					}
				},
			})
			k.Wait(p)
			m.Genesys.Drain(p)
		})
		if err := m.Run(); err != nil {
			return false
		}
		if !okAll || m.Genesys.Outstanding() != 0 {
			return false
		}
		for i := 0; i < m.GPU.HWWorkItems(); i++ {
			if m.Genesys.SlotState(i) != core.SlotFree {
				return false
			}
		}
		data, err := m.ReadFile("/tmp/fuzz")
		if err != nil || len(data) != len(mix) {
			return false
		}
		for i := range data {
			if data[i] != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
