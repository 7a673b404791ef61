package workloads

import (
	"testing"

	"genesys/internal/fault"
	"genesys/internal/platform"
)

func chaosMachine(t *testing.T, seed int64, profile string, rate float64) *platform.Machine {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	if profile != "" {
		plan, err := fault.PlanFor(profile, rate)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &plan
	}
	return platform.New(cfg)
}

func TestChaosBaseline(t *testing.T) {
	m := chaosMachine(t, 1, "", 0)
	defer m.Shutdown()
	res, err := RunChaos(m, DefaultChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Validated {
		t.Error("baseline chaos run produced wrong data")
	}
	if res.OpsFailed != 0 {
		t.Errorf("baseline chaos run surfaced %d failed ops", res.OpsFailed)
	}
	if res.EchoOK != int64(DefaultChaosConfig().WorkGroups) {
		t.Errorf("echo ok = %d, want %d", res.EchoOK, DefaultChaosConfig().WorkGroups)
	}
	if m.Inject.Injected != 0 {
		t.Errorf("baseline machine injected %d faults", m.Inject.Injected)
	}
}

// TestChaosUnderEveryProfile is the recover-or-surface contract: at an
// aggressive rate, every profile's run must terminate (the engine's
// deadlock detector fails the run on a hang), successful data must be
// correct, and each injected fault must be accounted recovered or
// surfaced.
func TestChaosUnderEveryProfile(t *testing.T) {
	for _, profile := range fault.Profiles() {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			m := chaosMachine(t, 3, profile, 0.25)
			defer m.Shutdown()
			res, err := RunChaos(m, DefaultChaosConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Validated {
				t.Error("recovered run returned corrupt data")
			}
			if m.Inject.Injected == 0 {
				t.Errorf("profile %s at rate 0.25 injected nothing", profile)
			}
		})
	}
}

// TestChaosDeterministicReplay: identical seed and plan must reproduce
// the run bit-for-bit — same virtual end time and same fault accounting.
func TestChaosDeterministicReplay(t *testing.T) {
	type snap struct {
		runtime                       int64
		injected, recovered, surfaced int64
		opsOK, opsFailed, echoOK      int64
	}
	run := func() snap {
		m := chaosMachine(t, 7, "all", 0.25)
		defer m.Shutdown()
		res, err := RunChaos(m, DefaultChaosConfig())
		if err != nil {
			t.Fatal(err)
		}
		return snap{
			runtime:   int64(res.Runtime),
			injected:  m.Inject.Injected,
			recovered: m.Inject.Recovered,
			surfaced:  m.Inject.Surfaced,
			opsOK:     res.OpsOK,
			opsFailed: res.OpsFailed,
			echoOK:    res.EchoOK,
		}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("chaos replay diverged:\n  first  %+v\n  second %+v", a, b)
	}
}
