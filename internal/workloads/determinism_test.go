package workloads

import (
	"testing"

	"genesys/internal/core"
	"genesys/internal/sim"
)

// TestWorkloadDeterminism: the simulator promises bit-identical results
// for identical seeds — the property that makes every experiment in this
// repository reproducible. Run each workload twice and compare every
// reported metric exactly.
func TestWorkloadDeterminism(t *testing.T) {
	t.Run("pread", func(t *testing.T) {
		run := func() PreadResult {
			res, err := RunPread(newM(t, 99), PreadConfig{
				FileSize: 8 << 20, ChunkPerWI: 16 << 10, WGSize: 64,
				Granularity: GranWorkItem, Wait: core.WaitHaltResume,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("diverged: %+v vs %+v", a, b)
		}
	})
	t.Run("grep", func(t *testing.T) {
		run := func() sim.Time {
			cfg := DefaultGrepConfig(GrepGPUWorkGroup)
			cfg.Files = 16
			res, err := RunGrep(newM(t, 99), cfg, NewGrepCorpus(cfg))
			if err != nil || !res.Correct() {
				t.Fatal(err)
			}
			return res.Runtime
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("diverged: %v vs %v", a, b)
		}
	})
	t.Run("memcached", func(t *testing.T) {
		run := func() MemcachedResult {
			cfg := DefaultMemcachedConfig(MemcachedGENESYS)
			cfg.Requests = 300
			res, err := RunMemcached(newM(t, 99), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("diverged: %+v vs %+v", a, b)
		}
	})
	t.Run("miniamr", func(t *testing.T) {
		run := func() sim.Time {
			cfg := DefaultMiniAMRConfig()
			cfg.WatermarkBytes = 224 << 20
			cfg.Steps = 30
			m := miniAMRMachine(t, 99)
			res, err := RunMiniAMR(m, cfg)
			if err != nil || !res.Completed {
				t.Fatalf("%v %+v", err, res)
			}
			return res.Runtime
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("diverged: %v vs %v", a, b)
		}
	})
}

// TestSeedsActuallyVary: different seeds must produce different timings
// where the model has stochastic elements (network jitter, client
// arrivals), or the error bars in the experiment tables are fake.
func TestSeedsActuallyVary(t *testing.T) {
	run := func(seed int64) sim.Time {
		cfg := DefaultMemcachedConfig(MemcachedCPU)
		cfg.Requests = 300
		res, err := RunMemcached(newM(t, seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLatency
	}
	if a, b := run(1), run(2); a == b {
		t.Fatal("two different seeds produced identical latency; jitter missing")
	}
}
