package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4), so
// spreads computed here and by a script over the printed values agree.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailsPer10k are the candidate tails, as samples per 10,000 beyond the
// percentile (1 is p99.99, 10 is p99.9), thinnest first. Integers keep
// the boundary test exact.
var tailsPer10k = []int{1, 10, 100, 500, 1000, 2500, 5000}

// tailPercentile returns the highest candidate percentile of n samples
// that still leaves at least minBeyond samples above it, so a reported
// tail rests on more than a handful of outliers. It returns 50 when n is
// too small for any tail.
func tailPercentile(n, minBeyond int) float64 {
	for _, t := range tailsPer10k {
		if n*t >= minBeyond*10_000 {
			return 100 - float64(t)/100
		}
	}
	return 50
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
