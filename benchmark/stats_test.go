package main

import "testing"

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), which
// the acceptance check uses on the printed values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100_000, 99.99},
		{59_261, 99.9}, // fleet's syscalls
		{24_576, 99.9}, // ssd-rw's syscalls
		{10_000, 99.9},
		{9_999, 99},
		{1_000, 99},
		{200, 95},
		{5, 50},
	} {
		if got := tailPercentile(tc.n, 10); got != tc.want {
			t.Errorf("tailPercentile(%d, 10) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
