package sim

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates scalar samples and reports count, mean and standard
// deviation using Welford's online algorithm.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of samples.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for no samples).
func (s *Summary) Mean() float64 { return s.mean }

// Std returns the sample standard deviation (0 for fewer than 2 samples).
func (s *Summary) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest sample (0 for no samples).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 for no samples).
func (s *Summary) Max() float64 { return s.max }

func (s *Summary) String() string {
	return fmt.Sprintf("%.3g ± %.2g (n=%d)", s.Mean(), s.Std(), s.n)
}

// MaxSeriesBins caps a Series: a sample that would need a bin index at
// or past it first doubles the bin width, merging adjacent bin pairs by
// the series' merge rule, so host memory stays bounded however much
// virtual time a series spans.
const MaxSeriesBins = 1 << 16

// Merge is how a Series folds a sample into a bin, and two bins into one
// when it coarsens.
type Merge uint8

const (
	SumBins Merge = iota // additive quantities: occupancy mass, bytes
	MaxBins              // per-bin peaks, such as resident set size
)

func (m Merge) fold(a, b float64) float64 {
	if m == MaxBins {
		return max(a, b)
	}
	return a + b
}

// Series accumulates values into fixed-width virtual-time bins; it backs
// time-series traces such as CPU utilization, disk throughput and RSS.
type Series struct {
	BinWidth Time
	merge    Merge
	bins     []float64
}

// NewSeries returns a series with the given initial bin width and merge
// rule.
func NewSeries(binWidth Time, merge Merge) *Series {
	if binWidth <= 0 {
		panic("sim: series bin width must be positive")
	}
	return &Series{BinWidth: binWidth, merge: merge}
}

func (s *Series) grow(idx int) {
	for len(s.bins) <= idx {
		s.bins = append(s.bins, 0)
	}
}

// fit coarsens the series until time t falls in a bin below
// MaxSeriesBins.
func (s *Series) fit(t Time) {
	for t/s.BinWidth >= MaxSeriesBins {
		s.BinWidth *= 2
		for i := 0; i < len(s.bins); i += 2 {
			v := s.bins[i]
			if i+1 < len(s.bins) {
				v = s.merge.fold(v, s.bins[i+1])
			}
			s.bins[i/2] = v
		}
		s.bins = s.bins[:(len(s.bins)+1)/2]
	}
}

// Add folds v into the bin containing time t by the series' merge rule.
func (s *Series) Add(t Time, v float64) {
	if t < 0 {
		return
	}
	idx := int(t / s.BinWidth)
	if idx >= MaxSeriesBins {
		s.fit(t)
		idx = int(t / s.BinWidth)
	}
	s.grow(idx)
	s.bins[idx] = s.merge.fold(s.bins[idx], v)
}

// AddInterval spreads v uniformly over [t0, t1), for a SumBins series.
// Mass before t = 0 is dropped, matching Add; the [0, t1) part keeps its
// proportional share.
func (s *Series) AddInterval(t0, t1 Time, v float64) {
	if t1 <= t0 {
		s.Add(t0, v)
		return
	}
	s.fit(t1) // coarsen for the end first, so the loop walks final-width bins
	total := float64(t1 - t0)
	t := t0
	if t < 0 {
		// Clamp to zero: with a negative t, the bin-end computation
		// (t/BinWidth truncates toward zero) produced a chunk straddling
		// t = 0 whose entire mass — including the valid [0, binEnd)
		// share — was discarded by Add.
		if t1 <= 0 {
			return
		}
		t = 0
	}
	for t < t1 {
		binEnd := (t/s.BinWidth + 1) * s.BinWidth
		if binEnd > t1 {
			binEnd = t1
		}
		s.Add(t, v*float64(binEnd-t)/total)
		t = binEnd
	}
}

// Bins returns a copy of the accumulated bins.
func (s *Series) Bins() []float64 {
	out := make([]float64, len(s.bins))
	copy(out, s.bins)
	return out
}

// Bin returns the value of bin i (0 if out of range).
func (s *Series) Bin(i int) float64 {
	if i < 0 || i >= len(s.bins) {
		return 0
	}
	return s.bins[i]
}

// NumBins returns the number of bins touched so far.
func (s *Series) NumBins() int { return len(s.bins) }

// Percentiles returns the requested percentiles (0..100) of samples.
// It sorts a copy of the input.
func Percentiles(samples []float64, ps ...float64) []float64 {
	if len(samples) == 0 {
		return make([]float64, len(ps))
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		rank := p / 100 * float64(len(sorted)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if hi >= len(sorted) {
			hi = len(sorted) - 1
		}
		frac := rank - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}
