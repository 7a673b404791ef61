package main

import "testing"

func TestVerdict(t *testing.T) {
	wall := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	rate := metricSpec{Name: "calls_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		s              metricSpec
		parent, change []float64
		want           string
	}{
		{"same runs", wall, base, base, noWorse},
		{"20% faster wins every pair", wall, base, scale(base, 0.8), improved},
		{"5% slower, inside bound", wall, base, scale(base, 1.05), noWorse},
		{"20% slower", wall, base, scale(base, 1.2), regressed},
		{"higher is better: 20% lower rate", rate, base, scale(base, 0.8), regressed},
		{"higher is better: 20% higher rate", rate, base, scale(base, 1.2), improved},
		{"spread wider than bound", wall, []float64{1, 1.5, 0.7, 1.3, 0.8, 1.4, 0.9, 1.2},
			[]float64{1.1, 1.4, 0.8, 1.2, 0.9, 1.3, 1.0, 1.5}, unresolved},
		{"wide spread but every new run better, 4 pairs", wall, []float64{2, 3, 2.5, 3.5},
			[]float64{1, 1.2, 1.1, 1.3}, noWorse},
		{"3% faster, 10 pairs", wall, base, scale(base, 0.97), improved},
		{"3% faster, 9 pairs", wall, base[:9], scale(base[:9], 0.97), unresolved},
		{"one pair, new run faster", wall, []float64{1.00}, []float64{0.98}, noWorse},
		{"one pair, new run 1% slower", wall, []float64{1.00}, []float64{1.01}, noWorse},
	} {
		if got := verdict(tc.s, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
