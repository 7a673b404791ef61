package main

// The calibration loop measures how fast this host runs the kinds of work
// the simulator spends its time on, so host times can be normalised for
// machine speed and background load. It deliberately imports nothing from
// the simulator: no change to the simulator can move it.

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"
)

// calibParts names the parts of the calibration mix, in run order.
var calibParts = [...]string{"handoff", "map", "alloc", "chase", "copy"}

type calibSample [len(calibParts)]time.Duration

// calibRefS is each part's median time, in seconds, on the host the
// bounds in BENCHMARK.json were set on (a 2-vCPU x86-64 VM, Go 1.24).
// Normalised host times read as "seconds on that host".
var calibRefS = [len(calibParts)]float64{0.037, 0.038, 0.030, 0.042, 0.037}

// Each part of the mix takes 30–45 ms on the reference host.
const (
	calibPingPongs   = 90_000
	calibMapKeys     = 400_000
	calibAllocs      = 1_800_000
	calibAllocChunks = 4
	calibChaseLen    = 4 << 20 // uint32 entries: 16 MiB
	calibChases      = 650_000
	calibCopies      = 60
)

var calibSink int

// calibrate runs the fixed work mix n times and returns each run's part
// times. Each run allocates what it needs itself and the heap is collected
// after it, so the mix leaves nothing in the heap the workload runs with.
func calibrate(n int) []calibSample {
	samples := make([]calibSample, n)
	for i := range samples {
		samples[i] = calibMix()
		runtime.GC()
	}
	return samples
}

// calibMix runs the mix once and returns each part's wall time:
// unbuffered-channel ping-pong (goroutine handoff), map insert and lookup,
// small-object allocation, a pointer chase through 16 MiB, and 8 MiB
// copies. The collector is off while a part runs, so the times do not
// depend on how much heap the workload keeps live. Before each chunk of
// the allocation part and before the chase it collects untimed, so it
// never holds more than about 17 MB: a process that only calibrates peaks
// at about 28 MB resident, below every workload's peak.
func calibMix() calibSample {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var s calibSample
	t := time.Now()
	lap := func(i int) {
		now := time.Now()
		s[i] += now.Sub(t)
		t = now
	}
	untimed := func(f func()) {
		f()
		t = time.Now()
	}

	ping, pong := make(chan int), make(chan int)
	done := make(chan struct{})
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(done)
	}()
	v := 0
	for i := 0; i < calibPingPongs; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-done
	lap(0)

	m := make(map[int]int)
	for i := 0; i < calibMapKeys; i++ {
		m[i*7919] = i
	}
	for i := 0; i < calibMapKeys; i++ {
		v += m[i*7919]
	}
	lap(1)

	type node struct {
		next *node
		pad  int64
	}
	for c := 0; c < calibAllocChunks; c++ {
		untimed(runtime.GC)
		// Each node points at the one allocated len(keep) earlier, so the
		// whole chunk stays reachable while keep is.
		var keep [64]*node
		for i := 0; i < calibAllocs/calibAllocChunks; i++ {
			n := &node{next: keep[(i+1)%len(keep)], pad: int64(i)}
			keep[i%len(keep)] = n
		}
		lap(2)
		v += int(keep[0].pad)
	}

	// The ring is built just before the chase, so every chase starts from
	// the same cache state: the one building it left.
	var ring []uint32
	untimed(func() {
		runtime.GC()
		ring = chaseRing()
	})
	p := uint32(0)
	for i := 0; i < calibChases; i++ {
		p = ring[p]
	}
	lap(3)

	// The copies move the ring's first half onto its second half, which
	// the chase no longer needs.
	half := len(ring) / 2
	for i := 0; i < calibCopies; i++ {
		copy(ring[half:], ring[:half])
		ring[i]++
	}
	lap(4)

	calibSink = v + int(p) + int(ring[half])
	return s
}

// chaseRing returns a single random cycle over calibChaseLen slots, built
// from a fixed seed, so every calibration walks the same cache-missing
// path.
func chaseRing() []uint32 {
	ring := make([]uint32, calibChaseLen)
	for i := range ring {
		ring[i] = uint32(i)
	}
	// Sattolo's algorithm: a uniform random single cycle.
	rng := rand.New(rand.NewSource(42))
	for i := len(ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}

func (s calibSample) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// calibFactor is how much slower than the reference host this run's host
// ran: the geometric mean over the parts of the part's median time over
// its reference time. Each part tracks a different kind of interference
// (scheduler wake-ups, cache and memory contention, bandwidth), and the
// geometric mean keeps one noisy part from dominating.
func calibFactor(samples []calibSample) float64 {
	logSum := 0.0
	for i := range calibParts {
		ts := make([]float64, len(samples))
		for j, s := range samples {
			ts[j] = s[i].Seconds()
		}
		logSum += math.Log(median(ts) / calibRefS[i])
	}
	return math.Exp(logSum / float64(len(calibParts)))
}

// calibElasticity is how closely the workloads' host time follows the
// calibration factor. In the agreement runs in README.md (two sets of ten
// runs per workload on the reference host), the log-log slope of raw wall
// time against the factor was 0.17 to 0.84: the mix reacts more strongly
// to other tenants' load than the simulator does. Over those eight
// workload-and-set spreads of wall_s, normalising by factor^0.75 gave a
// median of 7.3%, against 9.7% with the factor itself and 9.8% raw, at
// the price that times normalised on hosts of different speed compare
// only roughly.
const calibElasticity = 0.75

// normFactor converts host seconds measured alongside samples to
// normalised seconds.
func normFactor(samples []calibSample) float64 {
	return math.Pow(calibFactor(samples), -calibElasticity)
}
