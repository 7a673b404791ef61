package experiments

import (
	"fmt"
	"sort"

	"genesys/internal/platform"
	"genesys/internal/workloads"
)

// fleetSessions sizes the service-fleet experiment (smaller than the
// bench case so a multi-seed sweep stays fast).
const fleetSessions = 2000

// Fleet runs the service-fleet workload once per seed and reports the
// per-class SLO attainment plus what the flight recorder saw. With
// -faults this is the chaos scenario the observability stack is built
// for: detectors fire on the latency cliff and the anomaly bundles are
// exported via -flight-out.
func Fleet(o Options) *Table {
	t := &Table{
		ID:    "fleet",
		Title: "service fleet: per-class SLO attainment and flight-recorder verdict",
		Note: "Churning UDP + stream sessions against the sharded-socket server.\n" +
			"anomalies/bundles are the flight recorder's detector firings for the run.",
		Header: []string{"seed", "class", "offered", "completed", "timeouts",
			"p50 (us)", "p99 (us)", "min (us)", "max (us)", "anomalies", "bundles"},
	}
	g := &grid{o: o}
	rows := each(g, nil, func(m *platform.Machine, seed int64) ([][]string, error) {
		cfg := workloads.DefaultFleetConfig(fleetSessions)
		cfg.Seed = seed
		rep, err := workloads.RunFleet(m, cfg)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(rep.Classes))
		for n := range rep.Classes {
			names = append(names, n)
		}
		sort.Strings(names)
		fl := m.Obs.Flight
		var rows [][]string
		for _, n := range names {
			c := rep.Classes[n]
			rows = append(rows, []string{fmt.Sprint(seed), n,
				fmt.Sprint(c.Offered), fmt.Sprint(c.Completed), fmt.Sprint(c.Timeouts),
				fmt.Sprintf("%.1f", float64(c.P50Ns)/1e3),
				fmt.Sprintf("%.1f", float64(c.P99Ns)/1e3),
				fmt.Sprintf("%.1f", float64(c.MinNs)/1e3),
				fmt.Sprintf("%.1f", float64(c.MaxNs)/1e3),
				fmt.Sprint(fl.Anomalies()), fmt.Sprint(len(fl.Bundles()))})
		}
		return rows, nil
	})
	g.run()
	for _, seedRows := range rows {
		for _, r := range seedRows {
			t.AddRow(r...)
		}
	}
	return t
}
