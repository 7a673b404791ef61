package obs

import (
	"fmt"
	"math"

	"genesys/internal/sim"
)

// Histogram bucket geometry: bucket 0 is the underflow bucket for
// samples ≤ histMin; bucket i > 0 covers (histMin·g^(i-1), histMin·g^i]
// with g = 2^(1/8), i.e. eight sub-buckets per octave — a worst-case
// relative quantile error of ~±4.4% over ~15 decades of range.
const (
	histMin     = 1e-3
	histBuckets = 512
)

var histGrowth = math.Pow(2, 1.0/8)
var invLogGrowth = 1 / math.Log(histGrowth)

func bucketOf(v float64) int {
	if v <= histMin {
		return 0
	}
	i := 1 + int(math.Floor(math.Log(v/histMin)*invLogGrowth))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBounds returns the (lo, hi] value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, histMin
	}
	lo = histMin * math.Pow(histGrowth, float64(i-1))
	return lo, lo * histGrowth
}

// ExemplarK is how many top outlier samples a histogram retains as
// exemplars (largest values win; earlier samples win ties).
const ExemplarK = 3

// Exemplar links one retained outlier sample to its causal identity, so
// a p99 row in a rendered view points at a concrete invocation the
// flight recorder can look up: the sample value, the causal trace ID
// that produced it (0 when the sample has no syscall identity, e.g. a
// client-observed request latency) and the virtual-time instant it
// completed.
type Exemplar struct {
	Value float64
	Trace uint64
	At    sim.Time
}

// Histogram accumulates scalar samples into logarithmic buckets and
// answers percentile queries — the upgrade from the mean-only
// sim.Summary that lets the tracer report p50/p95/p99 per phase.
// Exact count, sum, min and max are tracked alongside the buckets, so
// Mean/Min/Max are precise; only quantiles are approximate. AddEx
// additionally retains the top-ExemplarK outlier samples with their
// trace IDs.
type Histogram struct {
	counts []int64 // lazily grown to the highest touched bucket
	n      int64
	sum    float64
	min    float64
	max    float64
	ex     []Exemplar // top-K samples by value, descending

	// cur and below are where the last Quantile stopped: bucket cur and
	// the exact number of samples in the buckets below it. Add keeps below
	// exact and Merge resets both, so the next query resumes from there
	// instead of rescanning from bucket 0.
	cur   int
	below int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample. Negative samples clamp into the underflow
// bucket (they never occur once tracer stamping is sound, but a garbage
// sample must not corrupt the buckets).
func (h *Histogram) Add(v float64) {
	if h.n == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.n++
	h.sum += v
	i := bucketOf(v)
	for len(h.counts) <= i {
		h.counts = append(h.counts, 0)
	}
	h.counts[i]++
	if i < h.cur {
		h.below++
	}
}

// AddEx records one sample carrying its causal identity; the top
// ExemplarK samples by value are retained as exemplars. Insertion is
// strictly-greater, so on ties the earliest sample is kept — the
// deterministic choice for byte-stable renders.
func (h *Histogram) AddEx(v float64, trace uint64, at sim.Time) {
	h.Add(v)
	i := len(h.ex)
	for i > 0 && v > h.ex[i-1].Value {
		i--
	}
	if i >= ExemplarK {
		return
	}
	h.ex = append(h.ex, Exemplar{})
	copy(h.ex[i+1:], h.ex[i:])
	h.ex[i] = Exemplar{Value: v, Trace: trace, At: at}
	if len(h.ex) > ExemplarK {
		h.ex = h.ex[:ExemplarK]
	}
}

// Exemplars returns the retained outlier samples, largest first.
func (h *Histogram) Exemplars() []Exemplar { return h.ex }

// N returns the number of samples.
func (h *Histogram) N() int { return int(h.n) }

// Mean returns the exact sample mean (0 for no samples).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Sum returns the exact sample sum.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest sample (0 for no samples).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest sample (0 for no samples).
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns the approximate p-th percentile (0 ≤ p ≤ 100),
// interpolated within the bucket the rank falls in and clamped to the
// exact observed [min, max]. It moves the histogram's read cursor, so it is
// a write for synchronisation purposes, like Add.
func (h *Histogram) Quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := p / 100 * float64(h.n)
	// The answer is the first bucket whose samples, with all those below
	// it, reach rank. Step back from the cursor until the buckets below
	// hold fewer than rank samples, then forward to that bucket. Counts
	// are integers well under 2^53, so float64(below) is exact and the
	// result equals a scan from bucket 0.
	i, below := h.cur, h.below
	for i > 0 && float64(below) >= rank {
		i--
		below -= h.counts[i]
	}
	for ; i < len(h.counts); i++ {
		c := h.counts[i]
		if float64(below+c) >= rank {
			h.cur, h.below = i, below
			lo, hi := bucketBounds(i)
			frac := (rank - float64(below)) / float64(c)
			v := lo + (hi-lo)*frac
			return clamp(v, h.min, h.max)
		}
		below += c
	}
	h.cur, h.below = i, below
	return h.max
}

// Percentiles returns the requested percentiles in order.
func (h *Histogram) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = h.Quantile(p)
	}
	return out
}

// Merge folds other's samples into h (exactly for count/sum/min/max,
// bucket-wise for the quantile state). Merging histograms from separate
// seeded runs is how experiments report cross-run percentiles.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 {
		h.min, h.max = other.min, other.max
	} else {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	h.n += other.n
	h.sum += other.sum
	h.cur, h.below = 0, 0
	for len(h.counts) < len(other.counts) {
		h.counts = append(h.counts, 0)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	for _, e := range other.ex {
		i := len(h.ex)
		for i > 0 && e.Value > h.ex[i-1].Value {
			i--
		}
		if i >= ExemplarK {
			continue
		}
		h.ex = append(h.ex, Exemplar{})
		copy(h.ex[i+1:], h.ex[i:])
		h.ex[i] = e
		if len(h.ex) > ExemplarK {
			h.ex = h.ex[:ExemplarK]
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (h *Histogram) String() string {
	q := h.Percentiles(50, 95, 99)
	return fmt.Sprintf("mean=%.3g p50=%.3g p95=%.3g p99=%.3g min=%.3g max=%.3g (n=%d)",
		h.Mean(), q[0], q[1], q[2], h.min, h.max, h.n)
}
