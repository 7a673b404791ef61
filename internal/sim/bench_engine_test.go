package sim

import (
	"fmt"
	"testing"
)

// Engine hot-path microbenchmarks. Run with
//
//	go test ./internal/sim -bench Engine/ -benchmem
//
// to see per-event cost and allocation behavior of each scheduling
// path. CI runs these with -benchtime=1x -count=3 as a smoke check and
// uploads the output as a build artifact.

var benchSink int

func nop() { benchSink++ }

// BenchmarkEngineHeapSchedulePop measures the near-future path: batches
// of events at scrambled future times pushed through the calendar and
// popped back in (t, seq) order. Value events make this 0 allocs/op. (The
// name, like the heap-* cases below, predates the calendar and is kept so
// results stay comparable across versions.)
func BenchmarkEngineHeapSchedulePop(b *testing.B) {
	e := NewEngine(1)
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := batch
		if b.N-i < n {
			n = b.N - i
		}
		base := e.Now()
		for j := 0; j < n; j++ {
			off := Time((j*2654435761)>>16&4095 + 1)
			e.CallAt(base+off, nop)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSameInstant measures same-instant scheduling: each
// callback schedules its successor at the current instant, so every
// event goes through the calendar's current bucket.
func BenchmarkEngineSameInstant(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.CallAt(e.Now(), step)
		}
	}
	e.CallAt(1, step)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineCallbackHop chains fixed-latency CallAfter callbacks —
// the shape of an IRQ delivery or retransmit arm: one calendar element,
// zero allocations, zero proc switches per hop.
func BenchmarkEngineCallbackHop(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.CallAfter(100, step)
		}
	}
	e.CallAfter(100, step)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineTimerHop is BenchmarkEngineCallbackHop through the
// cancellable After path: the one remaining allocation is the *Timer
// handle itself.
func BenchmarkEngineTimerHop(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(100, step)
		}
	}
	e.After(100, step)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineTimerCancel measures arm-then-disarm, the retransmit
// watchdog's common case: schedule a batch of timers, cancel them all.
// Cancellation removes the event eagerly, so the calendar is empty (and
// the closures unreachable) when the batch ends.
func BenchmarkEngineTimerCancel(b *testing.B) {
	e := NewEngine(1)
	const batch = 1024
	tms := make([]*Timer, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := batch
		if b.N-i < n {
			n = b.N - i
		}
		for j := 0; j < n; j++ {
			tms = append(tms, e.After(Time(j+1), nop))
		}
		for _, tm := range tms {
			tm.Cancel()
		}
		tms = tms[:0]
	}
}

// benchArmCancel measures one arm/disarm pair — the fleet timeout
// pattern — with `pending` other timers already resident, so the cost
// of touching a populated container is what's on the clock. Near-term
// delays exercise the calendar (O(1) list unlink); far delays exercise
// the far heap (an O(log n) sift on insert and on removal).
func benchArmCancel(b *testing.B, pending int, d Time) {
	e := NewEngine(1)
	hold := make([]*Timer, pending)
	for i := range hold {
		hold[i] = e.After(d+Time(i%1000)+1, nop)
	}
	var tm *Timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm = e.AtReuse(e.Now()+d, nop, tm)
		tm.Cancel()
	}
	b.StopTimer()
	for _, h := range hold {
		h.Cancel()
	}
}

// BenchmarkEngineArmCancel compares schedule+cancel cost between the
// two scheduler levels at 1k and 100k pending timers: heap-* arm in the
// calendar, far-* in the far heap. heap-* should be flat across
// pending-set size; far-* grows with its logarithm.
func BenchmarkEngineArmCancel(b *testing.B) {
	for _, tc := range []struct {
		name    string
		pending int
		d       Time
	}{
		{"heap-1k", 1_000, 1000},
		{"heap-100k", 100_000, 1000},
		{"far-1k", 1_000, farCutoff + 10*farGran},
		{"far-100k", 100_000, farCutoff + 10*farGran},
	} {
		b.Run(tc.name, func(b *testing.B) { benchArmCancel(b, tc.pending, tc.d) })
	}
}

// benchDrain measures end-to-end schedule → (far drain →) pop → run
// for batches of `pending` events, the j-th at offset off(j) from the
// batch's start.
func benchDrain(b *testing.B, pending int, off func(j int) Time) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += pending {
		n := pending
		if b.N-i < n {
			n = b.N - i
		}
		base := e.Now()
		for j := 0; j < n; j++ {
			e.CallAt(base+off(j), nop)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDrain compares schedule-to-execution throughput at 1k
// and 100k event batches: heap-* scatter events over the calendar's
// first 4µs (about 24 per nanosecond at 100k, so buckets are dense and
// unsorted); burst-100k puts every event at one instant, which must stay
// on the O(1) append path; far-* spread events over ~4.2 ms beyond the
// far cutoff (65 granules), so heap pops, idle advances and granule
// drains into the calendar are included.
func BenchmarkEngineDrain(b *testing.B) {
	near := func(j int) Time { return Time((j*2654435761)>>16&4095 + 1) }
	far := func(j int) Time { return farCutoff + Time((j*2654435761)>>8&(1<<22-1)) }
	for _, tc := range []struct {
		name    string
		pending int
		off     func(j int) Time
	}{
		{"heap-1k", 1_000, near},
		{"heap-100k", 100_000, near},
		{"burst-100k", 100_000, func(int) Time { return 1000 }},
		{"far-1k", 1_000, far},
		{"far-100k", 100_000, far},
	} {
		b.Run(tc.name, func(b *testing.B) { benchDrain(b, tc.pending, tc.off) })
	}
}

// BenchmarkEnginePollers models GPU poll waiters (WaitPoll mode): n
// callbacks, each re-arming itself alternately 1400ns (poll-load
// completion) and 2000ns (poll interval) ahead, so n events are always
// pending. 24 is the mean pending count measured on the fleet workload,
// 600 about wi-pread's peak of 582.
func BenchmarkEnginePollers(b *testing.B) {
	for _, n := range []int{24, 600} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			e := NewEngine(1)
			left := b.N
			for i := 0; i < n; i++ {
				long := i%2 == 0
				var poll func()
				poll = func() {
					if left--; left <= 0 {
						return
					}
					d := Time(1400)
					if long {
						d = 2000
					}
					long = !long
					e.CallAfter(d, poll)
				}
				e.CallAt(Time(1+i*1700/n), poll)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEngineSpawn measures proc creation, execution, and reaping in
// batches. After the first batch every spawn runs on a pooled coroutine.
func BenchmarkEngineSpawn(b *testing.B) {
	e := NewEngine(1)
	defer e.Shutdown()
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := batch
		if b.N-i < n {
			n = b.N - i
		}
		for j := 0; j < n; j++ {
			e.Spawn("w", func(p *Proc) {})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineProcHandoff ping-pongs two procs through a pair of
// capacity-1 queues: the full unblock → calendar → coroutine-switch
// cost of proc-mode communication, for comparison against
// BenchmarkEngineCallbackHop. Both sides block on every operation, and
// the round trip allocates nothing.
func BenchmarkEngineProcHandoff(b *testing.B) {
	e := NewEngine(1)
	ping := NewQueue[int](e, "ping", 1)
	pong := NewQueue[int](e, "pong", 1)
	n := b.N
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Put(p, i)
			pong.Get(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Get(p)
			pong.Put(p, i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
