package gpu

import (
	"fmt"
	"strings"
)

// CheckpointState renders the device's scheduling state as a
// deterministic byte string: per-CU occupancy and free-slot stacks,
// resident wavefronts (with generation, work-group identity and
// halt/poll status), per-slot generation counters, the pending kernel
// queue and the device counters. Pure reads; used as a verification
// section by internal/ckpt (DESIGN.md §10).
func (d *Device) CheckpointState() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "gpu v1\n")
	fmt.Fprintf(&b, "cfg cus=%d simd=%d wpc=%d clock=%d\n",
		d.cfg.CUs, d.cfg.SIMDWidth, d.cfg.WavefrontsPerCU, d.cfg.ClockMHz)
	fmt.Fprintf(&b, "counters kernels=%d wgs=%d irqs=%d halts=%d resumes=%d\n",
		d.KernelsLaunched, d.WGsDispatched, d.Interrupts, d.Halts, d.Resumes)

	for _, c := range d.cus {
		fmt.Fprintf(&b, "cu %d resident=%d pollers=%d free=%v\n",
			c.id, c.resident, c.pollers, c.freeSlots)
	}

	for hw, w := range d.hwWaves {
		if w == nil {
			if d.slotGens[hw] != 0 {
				fmt.Fprintf(&b, "slot %d gen=%d vacant\n", hw, d.slotGens[hw])
			}
			continue
		}
		fmt.Fprintf(&b, "slot %d gen=%d wave=%s/wg%d/wf%d lanes=%d halted=%v\n",
			hw, w.Gen, w.WG.Run.Name, w.WG.ID, w.ID, w.Lanes, w.halted)
	}

	fmt.Fprintf(&b, "pending_kernels %d\n", len(d.pending))
	for _, kr := range d.pending {
		fmt.Fprintf(&b, "pending %s wgs=%d/%d size=%d\n",
			kr.Name, kr.nextWG, kr.WorkGroups, kr.WGSize)
	}
	return []byte(b.String())
}
