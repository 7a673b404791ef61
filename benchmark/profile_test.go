package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// The decoder must read a profile runtime/pprof itself writes and find
// the function that burned the CPU on the sampled stacks.
func TestParseProfileRecordedHere(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(500 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	hits := 0
	for _, s := range samples {
		if s.value <= 0 {
			t.Fatalf("sample value %d, want CPU nanoseconds > 0", s.value)
		}
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				hits++
				break
			}
		}
	}
	if hits < len(samples)/2 {
		t.Fatalf("spinForProfile on %d of %d sampled stacks, want most", hits, len(samples))
	}
	shares := attribute(samples)
	if sum := sumShares(shares); math.Abs(sum-100) > 1e-6 {
		t.Fatalf("self_pct sums to %v, want 100", sum)
	}
}

func TestParseProfileRejectsMalformed(t *testing.T) {
	for name, b := range map[string][]byte{
		// A sample field claiming 5 bytes with 1 present.
		"length past end": {0x12, 0x05, 0x01},
		// Field 1 with its varint cut short.
		"unterminated varint": {0x08, 0x80},
		// Wire type 3 (group start), which profiles never use.
		"unknown wire type": {0x0b},
		// A sample at location 7 (value 1), whose line names function 9,
		// which the profile does not define.
		"dangling function": {0x12, 0x04, 0x08, 0x07, 0x10, 0x01,
			0x22, 0x06, 0x08, 0x07, 0x22, 0x02, 0x08, 0x09},
	} {
		if _, err := parseProfile(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func sumShares(s layerShares) float64 {
	sum := 0.0
	for _, v := range s.SelfPct {
		sum += v
	}
	return sum
}

func TestAttributeInnermostLayer(t *testing.T) {
	got := attribute([]cpuSample{
		{value: 40, stack: []string{"runtime.memmove",
			"genesys/internal/fs.(*ssdFile).WriteAt", "genesys/internal/syscalls.Dispatch",
			"genesys/internal/core.(*Genesys).process"}},
		{value: 30, stack: []string{"runtime.futex", "runtime.gopark", "runtime.chanrecv1",
			"genesys/internal/sim.(*Proc).yield", "genesys/internal/core.(*Genesys).InvokeWG"}},
		{value: 10, stack: []string{"genesys/internal/sim.(*Engine).Run", "main.fleetRep.func1"}},
		{value: 5, stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{value: 5, stack: []string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}},
		{value: 5, stack: []string{"runtime.casgstatus", "runtime.execute", "runtime.schedule",
			"runtime.park_m", "runtime.mcall"}},
		{value: 5, stack: []string{"bytes.Equal", "main.ssdRWRep.func3.1",
			"genesys/internal/gpu.(*Device).runWavefront"}},
	})
	want := map[string]float64{"fs": 40, "sim": 40, layerGC: 5, layerSched: 5, layerOther: 5, layerBench: 5}
	for l, v := range want {
		if math.Abs(got.SelfPct[l]-v) > 1e-9 {
			t.Errorf("%s self_pct = %v, want %v", l, got.SelfPct[l], v)
		}
	}
	if len(got.SelfPct) != len(want) {
		t.Errorf("layers %v, want exactly %v", got.SelfPct, want)
	}
	if math.Abs(got.HandoffPct-75) > 1e-9 {
		t.Errorf("sim handoff = %v%%, want 75%% (30 of sim's 40)", got.HandoffPct)
	}
}
