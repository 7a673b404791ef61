package fault

import (
	"strings"
	"testing"

	"genesys/internal/sim"
)

func TestEmptyPlanIsInactive(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	in := NewInjector(e, 42, Plan{}, func() {})
	if in.Active() {
		t.Fatal("empty plan reports active")
	}
	for i := 0; i < 100; i++ {
		if in.Should(SyscallErrno) {
			t.Fatal("empty plan fired")
		}
	}
	if in.Injected != 0 {
		t.Fatal("empty plan counted injections")
	}
}

func TestRatesZeroAndOne(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	in := NewInjector(e, 42, Plan{Rules: []Rule{
		{Point: IRQDrop, Rate: 1},
		{Point: NetDrop, Rate: 0},
	}}, func() {})
	for i := 0; i < 50; i++ {
		if !in.Should(IRQDrop) {
			t.Fatal("rate-1 rule did not fire")
		}
		if in.Should(NetDrop) {
			t.Fatal("rate-0 rule fired")
		}
	}
	if in.InjectedAt(IRQDrop) != 50 || in.Injected != 50 {
		t.Fatalf("injection counts: point=%d total=%d",
			in.InjectedAt(IRQDrop), in.Injected)
	}
}

func TestTimeWindowGatesInjection(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	in := NewInjector(e, 7, Plan{Rules: []Rule{
		{Point: BlockError, Rate: 1, After: 1 * sim.Millisecond, Until: 2 * sim.Millisecond},
	}}, func() {})
	var before, inside, after bool
	before = in.Should(BlockError) // t = 0: closed
	e.After(1500*sim.Microsecond, func() { inside = in.Should(BlockError) })
	e.After(2500*sim.Microsecond, func() { after = in.Should(BlockError) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if before || !inside || after {
		t.Fatalf("window gating: before=%v inside=%v after=%v", before, inside, after)
	}
}

func TestDeterministicReplay(t *testing.T) {
	plan, err := PlanFor("all", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	draw := func() []bool {
		e := sim.NewEngine(1)
		defer e.Shutdown()
		in := NewInjector(e, 99, plan, func() {})
		var out []bool
		for i := 0; i < 200; i++ {
			for _, p := range Points() {
				out = append(out, in.Should(p))
			}
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical (seed, plan) runs", i)
		}
	}
}

func TestPlanForProfiles(t *testing.T) {
	for _, p := range Profiles() {
		plan, err := PlanFor(p, 0)
		if err != nil {
			t.Fatalf("PlanFor(%q): %v", p, err)
		}
		if plan.Name != p || len(plan.Rules) == 0 {
			t.Fatalf("PlanFor(%q) = %+v", p, plan)
		}
		for _, r := range plan.Rules {
			if r.Rate <= 0 || r.Rate > 1 {
				t.Fatalf("profile %q rule %s has rate %g", p, r.Point, r.Rate)
			}
		}
	}
	if _, err := PlanFor("nonsense", 0.1); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if !strings.Contains(ProfileHelp(), "interrupt-loss") {
		t.Fatal("ProfileHelp misses profiles")
	}
}

func TestRenderListsPlanAndCounts(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	plan, _ := PlanFor("ssd-degraded", 1)
	hooked := 0
	in := NewInjector(e, 5, plan, func() { hooked++ })
	in.Should(BlockLatency)
	in.NoteRecovered()
	in.NoteSurfaced()
	if hooked != 1 {
		t.Fatalf("surfaced hook ran %d times, want 1", hooked)
	}
	out := in.Render()
	for _, want := range []string{"profile ssd-degraded",
		"rule blockdev.latency_spike", "injected.blockdev.latency_spike 1",
		"recovered 1", "surfaced 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render misses %q:\n%s", want, out)
		}
	}
}
