// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables II-IV, Figures 7-16): each driver sweeps the same
// parameters the paper reports, runs the simulation across several seeds,
// and renders the same rows/series as a plain-text table with mean ±
// standard deviation, mirroring the error bars in the paper's plots.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"

	"genesys/internal/fault"
	"genesys/internal/platform"
	"genesys/internal/sim"
)

// Options controls how experiments are run.
type Options struct {
	// Runs is the number of seeded repetitions per data point (the paper
	// uses 10-80; the default keeps regeneration fast).
	Runs int
	// BaseSeed is the first seed; run i uses BaseSeed+i.
	BaseSeed int64
	// Parallel is the most data points simulated at once, each on its
	// own machine (0 means runtime.GOMAXPROCS(0)). Rendered tables do
	// not depend on it.
	Parallel int
	// Observe, when set, is called once with every machine an experiment
	// builds, on the caller's goroutine and in submission order, after
	// that machine's data point has run and the machine has shut down:
	// the hook the CLI and the host benchmark read registries, tracers
	// and flight recorders through.
	Observe func(*platform.Machine)
	// TraceFirst enables the event log of the first machine (in
	// submission order) before it runs, so its timeline can be exported.
	TraceFirst bool

	// FaultProfile, when non-empty, arms fault injection with the named
	// profile (see fault.Profiles) on every machine built; FaultRate sets
	// the per-opportunity injection probability (0 selects the default).
	FaultProfile string
	FaultRate    float64

	// EventCap overrides the event-log ring capacity of every machine
	// built (0 keeps obs.DefaultEventCap).
	EventCap int
}

// DefaultOptions returns 3 runs from seed 1.
func DefaultOptions() Options { return Options{Runs: 3, BaseSeed: 1} }

func (o Options) runs() int {
	if o.Runs <= 0 {
		return 1
	}
	return o.Runs
}

// workers resolves Parallel to a worker count.
func (o Options) workers() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// Table is a rendered experiment result.
type Table struct {
	ID     string // e.g. "fig7"
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render produces an aligned plain-text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", strings.ToUpper(t.ID), t.Title)
	if t.Note != "" {
		for _, line := range strings.Split(t.Note, "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	all := append([][]string{t.Header}, t.Rows...)
	widths := make([]int, 0)
	for _, row := range all {
		for i, c := range row {
			for len(widths) <= i {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// grid is one driver call's data points. A driver schedules every point
// first, then calls run once, and only then reads results and renders
// rows, so the rendered table does not depend on which point finished
// first.
type grid struct {
	o      Options
	points []point
}

// point is one data point: a machine built from seed and tweak, which
// fn runs on a pool worker.
type point struct {
	seed  int64
	tweak func(*platform.Config)
	fn    func(*platform.Machine)
	m     *platform.Machine // finished, until Observe has seen it
}

// add schedules one data point. fn must write only state that belongs
// to this point.
func (g *grid) add(seed int64, tweak func(*platform.Config), fn func(*platform.Machine)) {
	g.points = append(g.points, point{seed: seed, tweak: tweak, fn: fn})
}

// each schedules fn once per seed and returns the slice its results
// land in: in seed order, once g.run has returned.
func each[R any](g *grid, tweak func(*platform.Config), fn func(m *platform.Machine, seed int64) R) []R {
	out := make([]R, g.o.runs())
	for i := range out {
		seed := g.o.BaseSeed + int64(i)
		g.add(seed, tweak, func(m *platform.Machine) { out[i] = fn(m, seed) })
	}
	return out
}

// run simulates every scheduled point on the worker pool, at most
// o.Parallel at a time. Each worker builds its point's machine, runs fn
// and shuts the machine down; Observe then sees the machines on this
// goroutine in submission order.
func (g *grid) run() {
	work := func(i int) {
		p := &g.points[i]
		m := newMachine(g.o, p.seed, p.tweak)
		if g.o.TraceFirst && i == 0 {
			m.Obs.Events.SetEnabled(true)
		}
		p.fn(m)
		m.Shutdown()
		if g.o.Observe != nil {
			p.m = m
		}
	}
	var done func(int)
	if g.o.Observe != nil {
		done = func(i int) {
			g.o.Observe(g.points[i].m)
			g.points[i].m = nil
		}
	}
	forEach(len(g.points), g.o.workers(), work, done)
}

// newMachine builds a machine with the given seed and optional tweaks.
func newMachine(o Options, seed int64, tweak func(*platform.Config)) *platform.Machine {
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	cfg.EventCap = o.EventCap
	armFaults(&cfg, o.FaultProfile, o.FaultRate)
	if tweak != nil {
		tweak(&cfg)
	}
	return platform.New(cfg)
}

// armFaults arms cfg with the named fault profile at rate (0 selects
// the profile's default); an empty profile leaves the machine fault-free.
func armFaults(cfg *platform.Config, profile string, rate float64) {
	cfg.Faults = nil
	if profile == "" {
		return
	}
	plan, err := fault.PlanFor(profile, rate)
	if err != nil {
		panic(err)
	}
	cfg.Faults = &plan
}

// validator counts a driver's runs whose answer fails validation.
// Without a fault profile a wrong answer is a bug, so check panics. With
// one, an injected fault may surface to the workload and spoil its
// answer: the run is counted and note reports the count in the table.
type validator struct {
	o      Options
	failed atomic.Int64 // pool workers check concurrently
}

// check validates one run's answer; msg describes a failure.
func (v *validator) check(ok bool, msg string) {
	if ok {
		return
	}
	if v.o.FaultProfile == "" {
		panic(msg)
	}
	v.failed.Add(1)
}

// note appends the failed-run count to t's note when a fault profile is
// armed; runs is the number of runs checked.
func (v *validator) note(t *Table, runs int) {
	if v.o.FaultProfile == "" {
		return
	}
	rate := v.o.FaultRate
	if rate <= 0 {
		rate = fault.DefaultRate
	}
	t.Note += fmt.Sprintf("\nUnder faults %s@%.2f, %d of %d run(s) failed validation; their values are included.",
		v.o.FaultProfile, rate, v.failed.Load(), runs)
}

// summary folds per-seed values into a Summary, in seed order.
func summary(vals []float64) *sim.Summary {
	var s sim.Summary
	for _, v := range vals {
		s.Add(v)
	}
	return &s
}

// ms formats a Summary of millisecond values as "mean ± std".
func ms(s *sim.Summary) string {
	return fmt.Sprintf("%.3f ± %.3f", s.Mean(), s.Std())
}

// f2 formats a Summary with two decimals.
func f2(s *sim.Summary) string {
	return fmt.Sprintf("%.2f ± %.2f", s.Mean(), s.Std())
}

// f0 formats a Summary with no decimals.
func f0(s *sim.Summary) string {
	return fmt.Sprintf("%.0f ± %.0f", s.Mean(), s.Std())
}

// ratio formats a speedup of two summaries.
func ratio(num, den *sim.Summary) string {
	if den.Mean() == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", num.Mean()/den.Mean())
}
