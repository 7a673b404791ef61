package experiments

import (
	"fmt"

	"genesys/internal/core"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/workloads"
)

// Ablation quantifies the design choices DESIGN.md flags (⚗): the padded
// slot layout, the dynamically-grown kernel worker pool, and the
// sensitivity of syscall latency to the GPU→CPU interrupt path — the
// "design guidelines for practitioners" the paper lists as its third
// contribution.
func Ablation(o Options) *Table {
	t := &Table{
		ID:    "ablation",
		Title: "Design-choice ablations (DESIGN.md §4)",
		Note: "Each row removes or perturbs one design decision and reports its cost on a\n" +
			"work-item-granularity pread flood (512 work-items × 4 KiB, tmpfs).",
		Header: []string{"design point", "variant", "read time (ms)", "vs default"},
	}

	g := &grid{o: o}
	v := &validator{o: o}
	flood := func(tweak func(*platform.Config)) []float64 {
		return each(g, tweak, func(m *platform.Machine, _ int64) float64 {
			res, err := workloads.RunPread(m, workloads.PreadConfig{
				FileSize: 512 * 4096, ChunkPerWI: 4096, WGSize: 64,
				Granularity: workloads.GranWorkItem, Wait: core.WaitPoll,
			})
			if err != nil {
				panic(fmt.Sprint("ablation: ", err))
			}
			v.check(res.Validated, "ablation: data not validated")
			return res.ReadTime.Milli()
		})
	}

	type row struct {
		point, variant string
		times          []float64
	}
	base := flood(nil)
	rows := []row{
		// ⚗2: slot layout.
		{"slot layout", "packed 4/line (false sharing)",
			flood(func(c *platform.Config) { c.Genesys.PackedSlots = true })},
		// Dynamic worker pool (cmwq): pin the pool at its initial size.
		{"worker pool", "static 1 worker",
			flood(func(c *platform.Config) { c.Kernel.Workers, c.Kernel.MaxWorkers = 1, 1 })},
		{"worker pool", "static 3 workers",
			flood(func(c *platform.Config) { c.Kernel.MaxWorkers = c.Kernel.Workers })},
		{"worker pool", "static 16 workers",
			flood(func(c *platform.Config) { c.Kernel.Workers, c.Kernel.MaxWorkers = 16, 16 })},
	}
	// Interrupt delivery latency sensitivity.
	for _, us := range []int64{1, 20, 80} {
		rows = append(rows, row{"irq latency", fmt.Sprintf("%dus delivery", us),
			flood(func(c *platform.Config) {
				c.GPU.InterruptLatency = sim.Time(us) * sim.Microsecond
			})})
	}
	// Coalescing on the same flood.
	rows = append(rows, row{"coalescing", "8-way, 50us window",
		flood(func(c *platform.Config) {
			c.Genesys.CoalesceWindow = 50 * sim.Microsecond
			c.Genesys.CoalesceMax = 8
		})})
	g.run()

	b := summary(base)
	t.AddRow("(default)", "padded slots, dynamic workers, 5us irq", ms(b), "1.00x")
	for _, r := range rows {
		s := summary(r.times)
		t.AddRow(r.point, r.variant, ms(s), fmt.Sprintf("%.2fx", s.Mean()/b.Mean()))
	}
	v.note(t, len(g.points))
	return t
}
