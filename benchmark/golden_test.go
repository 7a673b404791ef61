package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCheckDigests(t *testing.T) {
	const a, b = "aaaa", "bbbb"
	for _, tc := range []struct {
		name    string
		digests []string
		golden  string
		wrong   []bool
	}{
		{"all match golden", []string{a, a, a}, a, []bool{false, false, false}},
		{"perturbed golden fails every rep", []string{a, a, a}, b, []bool{true, true, true}},
		{"one rep drifts", []string{a, b, a}, a, []bool{false, true, false}},
		{"no golden: reps agree", []string{a, a}, "", []bool{false, false}},
		{"no golden: later rep differs from first", []string{a, a, b}, "", []bool{false, false, true}},
	} {
		got := checkDigests(tc.digests, tc.golden)
		for i := range got {
			if got[i] != tc.wrong[i] {
				t.Errorf("%s: wrong = %v, want %v", tc.name, got, tc.wrong)
				break
			}
		}
	}
}

func TestGoldenCoversEveryWorkloadAndSeed(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range goldenSeeds {
		for _, w := range allWorkloads {
			if d := g.digest(seed, w.name); len(d) != 64 {
				t.Errorf("golden digest for %s seed %d is %q, want a SHA-256", w.name, seed, d)
			}
		}
	}
}

// The fleet workload runs the `genesys bench` fleet case, so at seed 1
// its first machine must reproduce the committed baselines byte for byte.
func TestFleetSeed1IsCommittedBaseline(t *testing.T) {
	var parts [][]byte
	for _, f := range []string{"BENCH_fleet.json", "SLO_fleet.json"} {
		b, err := os.ReadFile(filepath.Join("..", "baselines", f))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, b)
	}
	var r repResult
	got, err := fleetCase(&r, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := digestOf(parts...); got != want {
		t.Fatalf("fleet seed 1 outputs digest %s, committed baselines %s", got, want)
	}
	if r.calls != 59_261 || r.failed != 0 {
		t.Fatalf("calls %d, failed %d; want 59261 and 0", r.calls, r.failed)
	}
}
