package main

import (
	"math"
	"strings"
	"time"

	"genesys/internal/core"
)

// metricSpec names one metric as BENCHMARK.json lists it. Bound, for an
// end-to-end metric, is the share of the parent's median by which the
// metric may get worse before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Host times are normalised by the calibration loop.
//
// The host-time bounds are 25%, the largest a bound may be: on the 2-vCPU
// VM shared with other tenants where they were set, the quartile spread
// of ten runs at ten seeds reached 14% (README.md has the runs). The
// memory bounds are three times their widest spread.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},
	{"calls_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// selfPctLayers are the layers whose share of the traced run's CPU
// samples is reported; the registry's "genesys." prefix is the core
// package.
var selfPctLayers = []string{"sim", "gpu", "mem", "core", "oskern", "cpu", "fs",
	"blockdev", "netstack", "gclib", "syscalls", "vmm", "workloads", "obs",
	"platform", "experiments", layerGC, layerSched, layerOther}

// layerCounts are the per-repetition counts read from the registry.
var layerCounts = []string{
	"sim.events_total", "sim.events_ready_fast", "sim.callbacks_run",
	"sim.proc_switches_total", "sim.timers_canceled", "sim.wheel_scheduled",
	"sim.procs_reaped",
	"genesys.invocations", "genesys.batches", "genesys.slot_conflicts",
	"genesys.retries", "genesys.irq_retransmits",
	"gpu.interrupts", "gpu.halts", "gpu.resumes",
	"oskern.tasks_run", "oskern.redispatches",
	"mem.l2_hits", "mem.l2_misses", "mem.dram_accesses",
	"blockdev.commands", "blockdev.bytes_read", "blockdev.bytes_written", "blockdev.retries",
	"netstack.sent", "netstack.dropped", "netstack.stream_bytes", "netstack.stream_refused",
	"obs.events_dropped", "obs.flight_chains",
	"cpu.busy_ns",
}

// countMetric names a registry count as a metric: the "genesys." prefix
// becomes "core.", and the engine's "_total"/"_run" suffixes and
// "events_" infix are dropped ("sim.events_total" → "sim.events").
func countMetric(reg string) string {
	switch reg {
	case "sim.events_total":
		return "sim.events"
	case "sim.events_ready_fast":
		return "sim.ready_fast"
	case "sim.callbacks_run":
		return "sim.callbacks"
	case "sim.proc_switches_total":
		return "sim.proc_switches"
	}
	if rest, ok := strings.CutPrefix(reg, "genesys."); ok {
		return "core." + rest
	}
	return reg
}

// perLayer lists every per-layer metric in the order they are printed.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) {
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better})
	}
	for _, l := range selfPctLayers {
		add(l+".self_pct", "%", "lower")
	}
	add("sim.handoff_pct", "%", "lower")
	for _, c := range layerCounts {
		unit := "count"
		switch {
		case strings.HasSuffix(c, "bytes") || strings.Contains(c, ".bytes_"):
			unit = "bytes"
		case c == "cpu.busy_ns":
			unit = "sim_ns"
		}
		add(countMetric(c), unit, "lower")
	}
	add("sim.switches_per_event", "ratio", "lower")
	add("core.calls_per_batch", "ratio", "higher")
	add("mem.l2_hit_ratio", "ratio", "higher")
	for _, ph := range core.Phases() {
		add("core.phase_"+ph+"_us", "sim_us", "lower")
	}
	for _, p := range probes {
		if p.ms {
			add(p.name+"_ms", "ms", "lower")
		} else {
			add(p.name+"_ns", "ns", "lower")
		}
		add(p.name+"_allocs", "count", "lower")
	}
	add("host.raw_wall_s", "s", "lower")
	add("host.calib_s", "s", "lower")
	add("host.gc_cycles", "count", "lower")
	add("host.trace_overhead_pct", "%", "lower")
	add("virt_ms", "sim_ms", "lower")
	add("virt_p50_us", "sim_us", "lower")
	add("virt_p999_us", "sim_us", "lower")
	add("fail_frac", "ratio", "lower")
	return out
}

// runData is everything one run of one workload measured.
type runData struct {
	reps   []repResult
	calib  []calibSample
	allocs []float64 // bytes allocated per repetition
	gcs    []float64 // GC cycles per repetition
	rssMB  float64

	traced      []time.Duration // raw walls of the profiled repetitions
	tracedCalib []calibSample   // calibrations around the profiled repetitions
	layers      layerShares
	probeStats  map[string]probeResult
}

// endToEnd returns each end-to-end metric's per-repetition values; the
// run reports their median and quartiles.
func (d *runData) endToEnd() map[string][]float64 {
	n := normFactor(d.calib)
	var wall, setup, cps []float64
	for _, r := range d.reps {
		w := r.wall().Seconds() * n
		wall = append(wall, w)
		cps = append(cps, float64(r.calls)/w)
		if r.setupProbes != nil {
			for _, p := range r.setupProbes {
				setup = append(setup, float64(r.machines)*p.Seconds()*n)
			}
		} else {
			setup = append(setup, r.setup.Seconds()*n)
		}
	}
	mb := make([]float64, len(d.allocs))
	for i, a := range d.allocs {
		mb[i] = a / 1e6
	}
	return map[string][]float64{
		"wall_s":      wall,
		"calls_per_s": cps,
		"setup_s":     setup,
		"alloc_mb":    mb,
		"peak_rss_mb": {d.rssMB},
	}
}

// perLayer computes every per-layer metric. Counts and virtual-time
// values come from the first repetition: every repetition repeats them
// exactly, which the digest check enforces.
func (d *runData) perLayer() map[string]float64 {
	r := d.reps[0]
	out := map[string]float64{}
	for _, l := range selfPctLayers {
		out[l+".self_pct"] = d.layers.SelfPct[l]
	}
	out["sim.handoff_pct"] = d.layers.HandoffPct
	for _, c := range layerCounts {
		out[countMetric(c)] = float64(r.counts[c])
	}
	out["sim.switches_per_event"] = ratio(r.counts["sim.proc_switches_total"], r.counts["sim.events_total"])
	out["core.calls_per_batch"] = ratio(r.counts["genesys.invocations"], r.counts["genesys.batches"])
	out["mem.l2_hit_ratio"] = ratio(r.counts["mem.l2_hits"], r.counts["mem.l2_hits"]+r.counts["mem.l2_misses"])
	for _, ph := range core.Phases() {
		out["core.phase_"+ph+"_us"] = r.phases[ph].Mean()
	}
	for _, p := range probes {
		ps := d.probeStats[p.name]
		if p.ms {
			out[p.name+"_ms"] = float64(ps.perOp.Nanoseconds()) / 1e6
		} else {
			out[p.name+"_ns"] = float64(ps.perOp.Nanoseconds())
		}
		out[p.name+"_allocs"] = ps.allocs
	}
	var raw []float64
	for _, r := range d.reps {
		raw = append(raw, r.wall().Seconds())
	}
	out["host.raw_wall_s"] = median(raw)
	totals := make([]time.Duration, len(d.calib))
	for i, c := range d.calib {
		totals[i] = c.total()
	}
	out["host.calib_s"] = median(seconds(totals))
	out["host.gc_cycles"] = median(d.gcs)
	traced := median(seconds(d.traced)) * normFactor(d.tracedCalib)
	out["host.trace_overhead_pct"] = 100 * (traced/(median(raw)*normFactor(d.calib)) - 1)
	out["virt_ms"] = r.virt.Milli()
	out["virt_p50_us"] = r.lat.Quantile(50)
	out["virt_p999_us"] = r.lat.Quantile(math.Min(99.9, tailPercentile(r.lat.N(), 10)))
	var att, failed int64
	for _, r := range d.reps {
		att += r.attempted
		failed += r.failed
	}
	out["fail_frac"] = ratio(failed, att)
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
