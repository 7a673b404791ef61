// Package fault is the machine's deterministic fault-injection
// subsystem: a seeded, virtual-time random process that decides — at a
// fixed set of injection points wired through oskern, core, blockdev,
// netstack and syscalls — whether a given operation fails, stalls or is
// lost. Every decision is drawn from the Injector's own RNG (never the
// engine's), so an inactive or rate-zero plan leaves the baseline event
// schedule bit-identical, and a fixed (seed, plan) pair replays the
// exact same fault schedule on every run.
//
// The subsystem only injects; recovery lives where it does in a real
// system — interrupt retransmission in core, workqueue re-dispatch in
// oskern, command retry in blockdev, and the restartable-syscall layer
// in gclib — and reports back here through NoteRecovered/NoteSurfaced
// so the registry exposes machine-wide injected/recovered/surfaced
// totals.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"genesys/internal/sim"
)

// Point names one injection site in the machine.
type Point string

const (
	// IRQDrop loses a GPU→CPU doorbell interrupt in the handler.
	IRQDrop Point = "oskern.irq_drop"
	// SlotSkip makes the OS worker's 64-slot scan skip a ready slot.
	SlotSkip Point = "oskern.slot_skip"
	// WorkerStall parks an OS worker thread mid-dispatch (Param: stall
	// duration in nanoseconds; 0 uses the default).
	WorkerStall Point = "oskern.worker_stall"
	// BlockLatency adds a service-time spike to one SSD command (Param:
	// extra nanoseconds; 0 uses the default).
	BlockLatency Point = "blockdev.latency_spike"
	// BlockError fails one SSD command with a transient I/O error.
	BlockError Point = "blockdev.io_error"
	// NetDrop loses a datagram in flight.
	NetDrop Point = "netstack.drop"
	// NetReset refuses a send as if the peer reset (ECONNREFUSED).
	NetReset Point = "netstack.reset"
	// NetEAGAIN fails a send with EAGAIN as if the send buffer is full.
	NetEAGAIN Point = "netstack.eagain"
	// SyscallErrno fails a dispatched system call with a transient errno
	// (Param: the errno number to inject; 0 rotates EINTR/EAGAIN/ENOMEM).
	SyscallErrno Point = "syscalls.transient_errno"
)

// Points lists every injection point in a fixed order.
func Points() []Point {
	return []Point{IRQDrop, SlotSkip, WorkerStall, BlockLatency, BlockError,
		NetDrop, NetReset, NetEAGAIN, SyscallErrno}
}

// Rule arms one injection point with a failure rate over a virtual-time
// window. A zero Until means "forever"; Param is point-specific.
type Rule struct {
	Point Point
	Rate  float64  // probability an eligible operation is hit, in [0, 1]
	After sim.Time // injection starts at this virtual time
	Until sim.Time // injection stops here; 0 = never
	Param int64
}

// Plan is a named set of injection rules — what -faults=<profile>
// resolves to.
type Plan struct {
	Name  string
	Rules []Rule
}

// DefaultRate is used when a profile is requested without a rate.
const DefaultRate = 0.05

// Profiles lists the built-in fault profiles.
func Profiles() []string {
	return []string{"interrupt-loss", "worker-stall", "transient-errno",
		"ssd-degraded", "net-flaky", "all"}
}

// ProfileHelp renders one line per profile for -faults=help.
func ProfileHelp() string {
	var b strings.Builder
	b.WriteString("fault profiles (use with -faults=<profile> [-fault-rate R]):\n")
	for _, p := range Profiles() {
		plan, _ := PlanFor(p, DefaultRate)
		pts := make([]string, len(plan.Rules))
		for i, r := range plan.Rules {
			pts[i] = string(r.Point)
		}
		fmt.Fprintf(&b, "  %-16s %s\n", p, strings.Join(pts, ", "))
	}
	return b.String()
}

// PlanFor resolves a profile name and rate to a concrete Plan. A rate
// <= 0 selects DefaultRate.
func PlanFor(profile string, rate float64) (Plan, error) {
	if rate <= 0 {
		rate = DefaultRate
	}
	if rate > 1 {
		rate = 1
	}
	switch profile {
	case "interrupt-loss":
		return Plan{Name: profile, Rules: []Rule{
			{Point: IRQDrop, Rate: rate},
			{Point: SlotSkip, Rate: rate / 2},
		}}, nil
	case "worker-stall":
		return Plan{Name: profile, Rules: []Rule{
			{Point: WorkerStall, Rate: rate, Param: int64(2 * sim.Millisecond)},
		}}, nil
	case "transient-errno":
		return Plan{Name: profile, Rules: []Rule{
			{Point: SyscallErrno, Rate: rate},
		}}, nil
	case "ssd-degraded":
		return Plan{Name: profile, Rules: []Rule{
			{Point: BlockLatency, Rate: rate, Param: int64(500 * sim.Microsecond)},
			{Point: BlockError, Rate: rate / 2},
		}}, nil
	case "net-flaky":
		return Plan{Name: profile, Rules: []Rule{
			{Point: NetDrop, Rate: rate},
			{Point: NetEAGAIN, Rate: rate},
			{Point: NetReset, Rate: rate / 4},
		}}, nil
	case "all":
		all := Plan{Name: profile}
		for _, p := range []string{"interrupt-loss", "worker-stall",
			"transient-errno", "ssd-degraded", "net-flaky"} {
			sub, _ := PlanFor(p, rate)
			all.Rules = append(all.Rules, sub.Rules...)
		}
		return all, nil
	}
	return Plan{}, fmt.Errorf("fault: unknown profile %q (have: %s)",
		profile, strings.Join(Profiles(), ", "))
}

// Injector evaluates a Plan against virtual time. Every machine has one;
// with an empty plan it fires nothing.
type Injector struct {
	e     *sim.Engine
	rng   *rand.Rand
	plan  Plan
	rules map[Point][]Rule

	// Injected / Recovered / Surfaced are the machine-wide totals: every
	// fault injected anywhere, every fault a recovery mechanism absorbed,
	// and every fault that reached the workload as an errno.
	Injected  int64
	Recovered int64
	Surfaced  int64

	perPoint map[Point]int64

	// surfaced fires on every NoteSurfaced — the flight recorder's
	// fault-surfaced detector hangs off it.
	surfaced func()
}

// NewInjector builds an injector over e with its own RNG seeded from
// seed. An empty plan yields an inactive injector: counters register,
// but no RNG is ever drawn and no recovery machinery should arm.
// surfaced is invoked whenever a fault surfaces to the workload (after
// the counter increments). It is pure notification: it must not perturb
// virtual time or randomness.
func NewInjector(e *sim.Engine, seed int64, plan Plan, surfaced func()) *Injector {
	in := &Injector{
		e:        e,
		rng:      rand.New(rand.NewSource(seed)),
		plan:     plan,
		rules:    make(map[Point][]Rule),
		perPoint: make(map[Point]int64),
		surfaced: surfaced,
	}
	for _, r := range plan.Rules {
		in.rules[r.Point] = append(in.rules[r.Point], r)
	}
	return in
}

// Active reports whether any rule is armed. Recovery machinery that
// costs events (watchdog timers, restart loops) gates on this, keeping
// the default path free of both events and RNG draws.
func (in *Injector) Active() bool {
	return len(in.rules) > 0
}

// Plan returns the installed plan.
func (in *Injector) Plan() Plan { return in.plan }

// Fire asks whether an operation at point pt is hit right now. It draws
// one RNG sample per rule whose time window is open, counts the
// injection, and returns the matching rule.
func (in *Injector) Fire(pt Point) (Rule, bool) {
	rules := in.rules[pt]
	if len(rules) == 0 {
		return Rule{}, false
	}
	now := in.e.Now()
	for _, r := range rules {
		if now < r.After || (r.Until > 0 && now >= r.Until) {
			continue
		}
		if in.rng.Float64() < r.Rate {
			in.Injected++
			in.perPoint[pt]++
			return r, true
		}
	}
	return Rule{}, false
}

// Should is Fire without the rule.
func (in *Injector) Should(pt Point) bool {
	_, ok := in.Fire(pt)
	return ok
}

// Pick returns a deterministic value in [0, n) from the injector's RNG,
// for choosing between injection variants (e.g. which errno).
func (in *Injector) Pick(n int) int {
	if n <= 0 {
		return 0
	}
	return in.rng.Intn(n)
}

// NoteRecovered records that a recovery mechanism (retry, retransmit,
// re-dispatch) transparently absorbed an injected fault.
func (in *Injector) NoteRecovered() { in.Recovered++ }

// NoteSurfaced records that a fault reached the workload as an errno.
func (in *Injector) NoteSurfaced() {
	in.Surfaced++
	in.surfaced()
}

// InjectedAt returns the number of injections at one point.
func (in *Injector) InjectedAt(pt Point) int64 { return in.perPoint[pt] }

// Render produces the /sys/genesys/faults view: the active plan and the
// per-point injection counts.
func (in *Injector) Render() string {
	var b strings.Builder
	name := in.plan.Name
	if name == "" || !in.Active() {
		name = "none"
	}
	fmt.Fprintf(&b, "profile %s\n", name)
	for _, r := range in.plan.Rules {
		fmt.Fprintf(&b, "rule %s rate %g", r.Point, r.Rate)
		if r.After > 0 || r.Until > 0 {
			fmt.Fprintf(&b, " window [%d,%d)", int64(r.After), int64(r.Until))
		}
		if r.Param != 0 {
			fmt.Fprintf(&b, " param %d", r.Param)
		}
		b.WriteString("\n")
	}
	pts := Points()
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	for _, p := range pts {
		fmt.Fprintf(&b, "injected.%s %d\n", p, in.perPoint[p])
	}
	fmt.Fprintf(&b, "injected %d\nrecovered %d\nsurfaced %d\n",
		in.Injected, in.Recovered, in.Surfaced)
	return b.String()
}
