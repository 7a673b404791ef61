package experiments

import (
	"fmt"

	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/workloads"
)

// chaosRates are the per-opportunity injection probabilities the sweep
// visits for each profile.
var chaosRates = []float64{0.05, 0.25}

// Chaos sweeps the fault-injection profiles over the mixed-syscall chaos
// workload and reports, per (profile, rate) cell: how many faults were
// injected, how many the stack recovered transparently vs surfaced as
// errnos, and how much the per-work-group latency distribution inflated
// relative to the fault-free baseline. When the options already carry a
// fault profile (genesys run -faults=<profile> chaos), only that profile
// is swept.
func Chaos(o Options) *Table {
	t := &Table{
		ID:    "chaos",
		Title: "fault injection: recovery vs surfacing and latency inflation",
		Note: "Each cell runs the mixed workload (SSD pread + tmpfs pwrite + UDP echo)\n" +
			"under one fault profile. recovered = transparently retried/redelivered;\n" +
			"surfaced = returned to the application as a well-formed errno. Latency is\n" +
			"per-work-group end-to-end; inflation is p50 vs the fault-free baseline.",
		Header: []string{"profile", "rate", "runtime (ms)", "p50 (us)", "p95 (us)",
			"p99 (us)", "p50 infl", "injected", "recovered", "surfaced", "echo ok", "ops fail"},
	}

	profiles := []string{"interrupt-loss", "worker-stall", "transient-errno",
		"ssd-degraded", "net-flaky", "all"}
	if o.FaultProfile != "" {
		profiles = []string{o.FaultProfile}
	}
	rates := chaosRates
	if o.FaultRate > 0 {
		rates = []float64{o.FaultRate}
	}

	// sample is one seed's run of one cell.
	type sample struct {
		res                           workloads.ChaosResult
		injected, recovered, surfaced int64
	}
	g := &grid{o: o}
	run := func(profile string, rate float64) []sample {
		arm := func(c *platform.Config) { armFaults(c, profile, rate) }
		return each(g, arm, func(m *platform.Machine, _ int64) sample {
			res, err := workloads.RunChaos(m, workloads.DefaultChaosConfig())
			if err != nil {
				panic(fmt.Sprint("chaos: ", err))
			}
			if !res.Validated {
				panic(fmt.Sprintf("chaos %s@%.2f: corrupt data survived recovery", profile, rate))
			}
			return sample{res, m.Inject.Injected, m.Inject.Recovered, m.Inject.Surfaced}
		})
	}
	type cell struct {
		name, rate string
		samples    []sample
	}
	base := run("", 0)
	var cells []cell
	for _, p := range profiles {
		for _, rate := range rates {
			cells = append(cells, cell{p, fmt.Sprintf("%.2f", rate), run(p, rate)})
		}
	}
	g.run()

	latency := func(samples []sample) []float64 {
		h := obs.NewHistogram()
		for _, s := range samples {
			h.Merge(s.res.Latency)
		}
		return h.Percentiles(50, 95, 99)
	}
	baseQ := latency(base)
	addRow := func(name, rate string, samples []sample) {
		var rt, injected, recovered, surfaced, echoOK, opsFailed sim.Summary
		for _, s := range samples {
			rt.Add(s.res.Runtime.Milli())
			injected.Add(float64(s.injected))
			recovered.Add(float64(s.recovered))
			surfaced.Add(float64(s.surfaced))
			echoOK.Add(float64(s.res.EchoOK))
			opsFailed.Add(float64(s.res.OpsFailed))
		}
		q := latency(samples)
		infl := "1.00x"
		if baseQ[0] > 0 {
			infl = fmt.Sprintf("%.2fx", q[0]/baseQ[0])
		}
		t.AddRow(name, rate, ms(&rt),
			fmt.Sprintf("%.0f", q[0]), fmt.Sprintf("%.0f", q[1]), fmt.Sprintf("%.0f", q[2]),
			infl, f0(&injected), f0(&recovered), f0(&surfaced),
			f0(&echoOK), f0(&opsFailed))
	}
	addRow("baseline (no faults)", "-", base)
	for _, c := range cells {
		addRow(c.name, c.rate, c.samples)
	}
	return t
}
