package sim

import (
	"math"
	"testing"
)

func TestAddIntervalNegativeStart(t *testing.T) {
	// Interval [-15, 25) with total mass 40: 15 units fall before t=0
	// (dropped, like Add), 10 land in bin 0 and 15 in bins 1-2.
	s := NewSeries(10, SumBins)
	s.AddInterval(-15, 25, 40)
	if got := s.Bin(0); math.Abs(got-10) > 1e-9 {
		t.Fatalf("bin 0 = %f, want 10", got)
	}
	if got := s.Bin(1); math.Abs(got-10) > 1e-9 {
		t.Fatalf("bin 1 = %f, want 10", got)
	}
	if got := s.Bin(2); math.Abs(got-5) > 1e-9 {
		t.Fatalf("bin 2 = %f, want 5", got)
	}
	var sum float64
	for _, b := range s.Bins() {
		sum += b
	}
	if math.Abs(sum-25) > 1e-9 {
		t.Fatalf("retained mass = %f, want 25 (15 dropped before t=0)", sum)
	}
}

func TestAddIntervalEntirelyNegative(t *testing.T) {
	s := NewSeries(10, SumBins)
	s.AddInterval(-30, -5, 7)
	if s.NumBins() != 0 {
		t.Fatalf("mass before t=0 must be dropped, got bins %v", s.Bins())
	}
}

func TestAddIntervalNegativeWithinFirstBin(t *testing.T) {
	// [-5, 5): half the mass precedes t=0; bin 0 gets exactly half.
	s := NewSeries(10, SumBins)
	s.AddInterval(-5, 5, 8)
	if got := s.Bin(0); math.Abs(got-4) > 1e-9 {
		t.Fatalf("bin 0 = %f, want 4", got)
	}
	if s.NumBins() != 1 {
		t.Fatalf("bins = %v", s.Bins())
	}
}

func TestAddIntervalPositiveUnchanged(t *testing.T) {
	s := NewSeries(10, SumBins)
	s.AddInterval(5, 25, 10)
	if got := s.Bin(0); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("bin 0 = %f, want 2.5", got)
	}
	if got := s.Bin(1); math.Abs(got-5) > 1e-9 {
		t.Fatalf("bin 1 = %f, want 5", got)
	}
	if got := s.Bin(2); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("bin 2 = %f, want 2.5", got)
	}
}

func TestPercentilesSingleSample(t *testing.T) {
	for _, p := range []float64{0, 25, 50, 95, 99, 100} {
		got := Percentiles([]float64{7.5}, p)
		if len(got) != 1 || got[0] != 7.5 {
			t.Fatalf("p%.0f of single sample = %v, want [7.5]", p, got)
		}
	}
	multi := Percentiles([]float64{3, 1, 2}, 0, 50, 100)
	if multi[0] != 1 || multi[1] != 2 || multi[2] != 3 {
		t.Fatalf("percentiles = %v", multi)
	}
	empty := Percentiles(nil, 50, 99)
	if len(empty) != 2 || empty[0] != 0 || empty[1] != 0 {
		t.Fatalf("empty percentiles = %v", empty)
	}
}

// TestSeriesBinsBounded holds a sum and a max series for 2,000 virtual
// seconds at 1 ms bins, with samples 1 ms apart every 250 ms: each
// doubles its bin width until it needs at most MaxSeriesBins bins, the
// sum series keeps its mass, and the max series keeps the peak of the
// samples that coarsening merged instead of adding them up.
func TestSeriesBinsBounded(t *testing.T) {
	const span, every = 2000 * Second, 250 * Millisecond
	sum, peak := NewSeries(Millisecond, SumBins), NewSeries(Millisecond, MaxBins)
	for at := Time(0); at < span; at += every {
		sum.Add(at, 1)
		peak.Add(at, 3)
		peak.Add(at+Millisecond, 5)
	}
	for _, s := range []*Series{sum, peak} {
		if s.NumBins() > MaxSeriesBins || s.BinWidth != 32*Millisecond {
			t.Fatalf("%d bins of %v, want at most %d of 32ms", s.NumBins(), s.BinWidth, MaxSeriesBins)
		}
	}
	var mass float64
	for _, v := range sum.Bins() {
		mass += v
	}
	if mass != float64(span/every) {
		t.Fatalf("sum series mass %g, want %d", mass, span/every)
	}
	for i, v := range peak.Bins() {
		if v != 0 && v != 5 {
			t.Fatalf("max series bin %d = %g, want 0 or 5", i, v)
		}
	}
}
