package main

import (
	"go/parser"
	"go/token"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The calibration loop must not depend on the simulator, or a change to
// the simulator could move the yardstick it is measured with.
func TestCalibrationImportsNothingFromGenesys(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "calib.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		if path == "genesys" || strings.HasPrefix(path, "genesys/") {
			t.Errorf("calib.go imports %s", path)
		}
	}
}

func TestCalibrateTimesEveryPart(t *testing.T) {
	s := calibrate(1)[0]
	for i, d := range s {
		if d <= 0 {
			t.Errorf("part %s took %v", calibParts[i], d)
		}
	}
}

// The mix's buffers and garbage must not stay in the heap the workload
// runs with, where they would raise its collector's heap goal.
func TestCalibrateLeavesNothingLive(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	calibrate(2)
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("live heap grew by %d bytes across calibrate", grew)
	}
}

func TestCalibFactorIsGeometricMeanOfPartRatios(t *testing.T) {
	at := func(scale [len(calibParts)]float64) calibSample {
		var s calibSample
		for i := range s {
			s[i] = time.Duration(calibRefS[i] * scale[i] * float64(time.Second))
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		samples []calibSample
		want    float64
	}{
		{"reference host", []calibSample{at([5]float64{1, 1, 1, 1, 1})}, 1},
		{"twice as slow", []calibSample{at([5]float64{2, 2, 2, 2, 2})}, 2},
		{"one part 32x slower", []calibSample{at([5]float64{32, 1, 1, 1, 1})}, 2},
		{"median over samples", []calibSample{
			at([5]float64{1, 1, 1, 1, 1}), at([5]float64{2, 2, 2, 2, 2}), at([5]float64{9, 9, 9, 9, 9}),
		}, 2},
	} {
		if got := calibFactor(tc.samples); math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("%s: factor %v, want %v", tc.name, got, tc.want)
		}
	}
}
