package core

import (
	"fmt"
	"sort"
	"strings"

	"genesys/internal/obs"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// Phase labels of one GPU system call's life cycle (paper Figure 2's
// five steps, plus the final result harvest).
const (
	PhaseGPUSetup   = "gpu-setup"  // claim + populate + ready (step 1)
	PhaseDelivery   = "delivery"   // interrupt → batch enqueued (step 2)
	PhaseQueueing   = "queueing"   // workqueue wait + dispatch (step 3)
	PhaseProcessing = "processing" // syscall execution on the CPU (step 4)
	PhaseCompletion = "completion" // finished → result harvested (step 5)
)

// phaseNames is the life-cycle phases in order; the tracer's per-phase
// histograms and sums are indexed by position in it.
var phaseNames = [...]string{PhaseGPUSetup, PhaseDelivery, PhaseQueueing,
	PhaseProcessing, PhaseCompletion}

// Phases lists the life-cycle phases in order.
func Phases() []string { return append([]string(nil), phaseNames[:]...) }

// callTrace records the per-call timestamps the tracer aggregates, plus
// the identity of the call: a machine-unique trace ID assigned at
// slot-claim time (the causal flow ID in exported traces), the syscall
// number, the hardware wavefront that issued it and the OS worker that
// processed it. Every stamp is written unconditionally — stamping is
// free in virtual time — so the tracer only ever sees fully-stamped
// traces and never computes a negative phase from an unset (zero) field.
type callTrace struct {
	id   uint64 // trace ID, assigned at slot claim
	nr   int    // syscall number
	wave int    // issuing hardware wavefront slot
	gen  uint64 // slot generation of the issuing tenancy (hw slots are recycled)

	// worker is the OS worker that processed the call (-1 if none). It
	// is an int32 beside aborted so the two share one word: that keeps
	// Slot at 224 bytes, and a 64-slot chunk at 14,336 bytes, which is a
	// Go allocation size class (at 232 bytes a chunk rounds up to 16 KiB).
	worker int32

	// aborted marks a call the retransmit watchdog gave up on (EINTR
	// after MaxRetransmits): gpu-setup — and delivery, if the batch was
	// ever enqueued — are stamped, the later phases never happened.
	aborted bool

	claim    sim.Time // claim attempt started (GPU)
	ready    sim.Time // slot flipped to ready (GPU)
	enqueued sim.Time // batch entered the workqueue (CPU irq path)
	picked   sim.Time // worker began processing the slot
	done     sim.Time // syscall finished, result written
	harvest  sim.Time // invoking work-item consumed the result
}

// stamped reports whether every mandatory stamp was written and the
// stamps are monotonic. harvest may be zero (non-blocking calls have no
// harvest step).
func (c callTrace) stamped() bool {
	if c.ready == 0 || c.enqueued == 0 || c.picked == 0 || c.done == 0 {
		return false
	}
	return c.claim <= c.ready && c.ready <= c.enqueued &&
		c.enqueued <= c.picked && c.picked <= c.done &&
		(c.harvest == 0 || c.done <= c.harvest)
}

// nrStat aggregates per-syscall-number statistics for the critical-path
// table: the end-to-end histogram of completed calls (its count and sum
// are the call count and summed latency), per-phase latency sums and
// the aborted count.
type nrStat struct {
	aborted int
	phase   [len(phaseNames)]float64 // per-phase summed latency (us)
	hist    *obs.Histogram
}

// Tracer aggregates per-phase latency histograms across the machine's
// system calls. Every GENESYS instance owns one from construction; it
// costs nothing in virtual time. Each phase reports mean and
// p50/p95/p99 (Figure 2 / Table IV style percentile breakdowns);
// per-syscall-number stats feed the critical-path attribution table
// (CritPath, /sys/genesys/critpath) and the flight recorder's
// latency-outlier detector.
type Tracer struct {
	hist    [len(phaseNames)]*obs.Histogram // per phase, phaseNames order
	total   *obs.Histogram                  // end-to-end per-call latency
	skipped int
	aborted int
	byNR    map[int]*nrStat
}

func newTracer() *Tracer {
	t := &Tracer{total: obs.NewHistogram(), byNR: make(map[int]*nrStat)}
	for i := range t.hist {
		t.hist[i] = obs.NewHistogram()
	}
	return t
}

func (t *Tracer) nrStatFor(nr int) *nrStat {
	st, ok := t.byNR[nr]
	if !ok {
		st = &nrStat{hist: obs.NewHistogram()}
		t.byNR[nr] = st
	}
	return st
}

// record aggregates one finished call trace. For a completed call it
// returns the sample count and p99 of the call's per-syscall latency
// distribution as they stood before this call joined it: the baseline
// the flight recorder's latency-outlier detector compares against.
func (t *Tracer) record(c callTrace) (n int, p99 float64) {
	if c.aborted {
		// The retransmit watchdog surfaced EINTR after MaxRetransmits:
		// the call never reached a worker, so only the phases that
		// actually happened are recorded — under an aborted count, not
		// silently dropped.
		t.aborted++
		st := t.nrStatFor(c.nr)
		st.aborted++
		if c.ready >= c.claim && c.ready > 0 {
			t.hist[0].Add((c.ready - c.claim).Micro()) // gpu-setup
		}
		if c.enqueued >= c.ready && c.enqueued > 0 {
			t.hist[1].Add((c.enqueued - c.ready).Micro()) // delivery
		}
		return 0, 0
	}
	if !c.stamped() {
		// Incompletely-stamped trace (defensive: should not happen now
		// that stamping is unconditional) — never emit garbage samples.
		t.skipped++
		return 0, 0
	}
	if c.harvest == 0 {
		c.harvest = c.done // non-blocking: no harvest step
	}
	samples := [len(phaseNames)]float64{
		(c.ready - c.claim).Micro(),
		(c.enqueued - c.ready).Micro(),
		(c.picked - c.enqueued).Micro(),
		(c.done - c.picked).Micro(),
		(c.harvest - c.done).Micro(),
	}
	st := t.nrStatFor(c.nr)
	n, p99 = st.hist.N(), st.hist.Quantile(99)
	for i, v := range samples {
		t.hist[i].Add(v)
		st.phase[i] += v
	}
	totalUS := (c.harvest - c.claim).Micro()
	t.total.AddEx(totalUS, c.id, c.harvest)
	st.hist.AddEx(totalUS, c.id, c.harvest)
	return n, p99
}

// Calls returns how many system calls were traced.
func (t *Tracer) Calls() int { return t.total.N() }

// Skipped returns how many call traces were rejected for missing or
// non-monotonic stamps.
func (t *Tracer) Skipped() int { return t.skipped }

// Aborted returns how many traced calls were aborted with EINTR by the
// retransmit watchdog (fault paths).
func (t *Tracer) Aborted() int { return t.aborted }

// Phase returns the latency histogram (µs) of one phase, or nil for a
// name that is not a phase.
func (t *Tracer) Phase(name string) *obs.Histogram {
	for i, ph := range phaseNames {
		if ph == name {
			return t.hist[i]
		}
	}
	return nil
}

// Total returns the end-to-end per-call latency histogram (µs).
func (t *Tracer) Total() *obs.Histogram { return t.total }

// TotalMean returns the mean end-to-end latency in µs.
func (t *Tracer) TotalMean() float64 {
	var sum float64
	for _, h := range t.hist {
		sum += h.Mean()
	}
	return sum
}

// String renders the breakdown table with mean and percentiles.
func (t *Tracer) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "syscall latency breakdown over %d calls (us):\n", t.Calls())
	fmt.Fprintf(&b, "  %-11s %8s  %6s  %8s %8s %8s\n",
		"phase", "mean", "share", "p50", "p95", "p99")
	total := t.TotalMean()
	for i, ph := range phaseNames {
		h := t.hist[i]
		m := h.Mean()
		share := 0.0
		if total > 0 {
			share = 100 * m / total
		}
		q := h.Percentiles(50, 95, 99)
		fmt.Fprintf(&b, "  %-11s %8.2f  %5.1f%%  %8.2f %8.2f %8.2f\n",
			ph, m, share, q[0], q[1], q[2])
	}
	q := t.total.Percentiles(50, 95, 99)
	fmt.Fprintf(&b, "  %-11s %8.2f  %6s  %8.2f %8.2f %8.2f\n",
		"total", total, "", q[0], q[1], q[2])
	if t.Calls() > 0 {
		fmt.Fprintf(&b, "  total range min=%.2f max=%.2f us\n",
			t.total.Min(), t.total.Max())
	}
	if t.aborted > 0 {
		fmt.Fprintf(&b, "  (%d call(s) aborted with EINTR by the retransmit watchdog)\n", t.aborted)
	}
	if t.skipped > 0 {
		fmt.Fprintf(&b, "  (%d incompletely-stamped trace(s) skipped)\n", t.skipped)
	}
	return b.String()
}

// CritPath renders the critical-path attribution table served at
// /sys/genesys/critpath: per syscall number, end-to-end latency
// percentiles, the dominant life-cycle stage, and the share of latency
// each stage accounts for. The stages partition each call's end-to-end
// latency exactly, so the attribution always covers 100% of the traced
// time.
func (t *Tracer) CritPath() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical-path attribution over %d traced call(s)", t.Calls())
	if t.aborted > 0 {
		fmt.Fprintf(&b, " (+%d aborted)", t.aborted)
	}
	b.WriteString(":\n")
	if t.Calls() == 0 && t.aborted == 0 {
		b.WriteString("  no traced calls yet\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-16s %6s %5s %9s %9s %9s %9s %9s  %-11s", "syscall", "calls",
		"abrt", "mean-us", "p95-us", "p99-us", "min-us", "max-us", "dominant")
	for _, ph := range phaseNames {
		fmt.Fprintf(&b, " %7s", shortPhase(ph)+"%")
	}
	b.WriteString("\n")
	nrs := make([]int, 0, len(t.byNR))
	for nr := range t.byNR {
		nrs = append(nrs, nr)
	}
	sort.Ints(nrs)
	var sumPhases, sumTotal float64
	for _, nr := range nrs {
		st := t.byNR[nr]
		calls, totalUS := st.hist.N(), st.hist.Sum()
		fmt.Fprintf(&b, "  %-16s %6d %5d", syscalls.Name(nr), calls, st.aborted)
		if calls == 0 {
			b.WriteString("  (all aborted before processing)\n")
			continue
		}
		q := st.hist.Percentiles(95, 99)
		fmt.Fprintf(&b, " %9.2f %9.2f %9.2f %9.2f %9.2f",
			totalUS/float64(calls), q[0], q[1], st.hist.Min(), st.hist.Max())
		dom, domShare := 0, -1.0
		for i := range st.phase {
			if st.phase[i] > domShare {
				dom, domShare = i, st.phase[i]
			}
			sumPhases += st.phase[i]
		}
		sumTotal += totalUS
		fmt.Fprintf(&b, "  %-11s", phaseNames[dom])
		for i := range st.phase {
			share := 0.0
			if totalUS > 0 {
				share = 100 * st.phase[i] / totalUS
			}
			fmt.Fprintf(&b, " %7.1f", share)
		}
		b.WriteString("\n")
	}
	if sumTotal > 0 {
		fmt.Fprintf(&b, "  attributed %.1f%% of end-to-end latency to the %d named stages\n",
			100*sumPhases/sumTotal, len(phaseNames))
	}
	// Exemplars: the retained worst invocations per syscall, each naming
	// the causal trace ID a flight-recorder bundle (or -trace export)
	// can be filtered to.
	wrote := false
	for _, nr := range nrs {
		for _, e := range t.byNR[nr].hist.Exemplars() {
			if !wrote {
				b.WriteString("  exemplars (worst retained invocations):\n")
				wrote = true
			}
			fmt.Fprintf(&b, "    %-16s trace=%d total=%.2fus at=%v\n",
				syscalls.Name(nr), e.Trace, e.Value, e.At)
		}
	}
	return b.String()
}

// shortPhase abbreviates a phase name for the attribution table header.
func shortPhase(ph string) string {
	switch ph {
	case PhaseGPUSetup:
		return "setup"
	case PhaseDelivery:
		return "deliv"
	case PhaseQueueing:
		return "queue"
	case PhaseProcessing:
		return "proc"
	default:
		return "compl"
	}
}

// Tracer returns the machine's latency tracer.
func (g *Genesys) Tracer() *Tracer { return g.tracer }

// finishTrace routes one completed call trace to the tracer and emits
// its life-cycle spans, each placed on the synthetic process/thread
// where that phase ran and linked by the call's trace ID into one causal
// flow chain.
func (g *Genesys) finishTrace(s *Slot) {
	c := s.trace
	n, p99 := g.tracer.record(c)
	g.noteDone(s)
	name := syscalls.Name(c.nr)
	g.emitSpans(s, c, name)
	// Flight detectors run after span emission so a triggered bundle's
	// filtered trace already contains this call's complete chain, and
	// after record so its critpath snapshot counts this call. Pure
	// accounting: no virtual-time or randomness side effects.
	if c.aborted {
		g.flight.NoteAbort(name, c.id, c.done)
	} else if c.stamped() {
		end := c.harvest
		if end == 0 {
			end = c.done
		}
		g.flight.NoteCall(name, c.id, (end - c.claim).Micro(), end, n, p99)
	}
}

// emitSpans writes one call's life-cycle spans to the event log, each
// placed on the synthetic process/thread where that phase ran and
// linked by the call's trace ID into one causal flow chain.
func (g *Genesys) emitSpans(s *Slot, c callTrace, name string) {
	if c.aborted {
		// Aborted by the retransmit watchdog: emit the phases that
		// happened plus a terminal marker on the slot's row.
		g.events.FlowSpan("syscall", PhaseGPUSetup, obs.PIDGPU, c.wave,
			c.claim, c.ready, c.id, obs.FlowStart, name)
		if c.enqueued >= c.ready && c.enqueued > 0 {
			g.events.FlowSpan("syscall", PhaseDelivery, obs.PIDIRQ, c.wave,
				c.ready, c.enqueued, c.id, obs.FlowStep, name)
		}
		g.events.FlowSpan("syscall", "aborted(EINTR)", obs.PIDSyscalls, s.ID,
			c.done, c.done, c.id, obs.FlowEnd, name)
		return
	}
	if !c.stamped() {
		return
	}
	wtid := int(c.worker)
	if wtid < 0 {
		wtid = 0
	}
	g.events.FlowSpan("syscall", PhaseGPUSetup, obs.PIDGPU, c.wave,
		c.claim, c.ready, c.id, obs.FlowStart, name)
	g.events.FlowSpan("syscall", PhaseDelivery, obs.PIDIRQ, c.wave,
		c.ready, c.enqueued, c.id, obs.FlowStep, name)
	g.events.FlowSpan("syscall", PhaseQueueing, obs.PIDWorkqueue, c.wave,
		c.enqueued, c.picked, c.id, obs.FlowStep, name)
	if c.harvest != 0 {
		g.events.FlowSpan("syscall", PhaseProcessing, obs.PIDKernel, wtid,
			c.picked, c.done, c.id, obs.FlowStep, name)
		g.events.FlowSpan("syscall", PhaseCompletion, obs.PIDSyscalls, s.ID,
			c.done, c.harvest, c.id, obs.FlowEnd, name)
	} else {
		// Non-blocking: no harvest step; the chain ends at processing.
		g.events.FlowSpan("syscall", PhaseProcessing, obs.PIDKernel, wtid,
			c.picked, c.done, c.id, obs.FlowEnd, name)
	}
}
