package sim

import "testing"

// Engine hot-path microbenchmarks. Run with
//
//	go test ./internal/sim -bench Engine/ -benchmem
//
// to see per-event cost and allocation behavior of each scheduling
// path. CI runs these with -benchtime=1x -count=3 as a smoke check and
// uploads the output next to BENCH_host.json.

var benchSink int

func nop() { benchSink++ }

// BenchmarkEngineHeapSchedulePop measures the slow path: batches of
// events at scrambled future times pushed through the binary heap and
// popped back in (t, seq) order. Value events make this 0 allocs/op.
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

// BenchmarkEngineReadyQueue measures the same-instant fast path: each
// callback schedules its successor at the current instant, so every
// event rides the FIFO ready queue and never touches the heap.
func BenchmarkEngineReadyQueue(b *testing.B) {
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
// the shape of an IRQ delivery or retransmit arm: one heap element,
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
// Cancellation removes the event eagerly, so the heap is empty (and
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
// delays exercise the heap (O(log n) removal from the middle); far
// delays exercise the wheel (O(1) bucket swap-remove).
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
// two scheduler levels at 1k and 100k pending timers. The heap cases
// are the single-heap baseline the wheel replaced for far-future work;
// the wheel cases should be flat across pending-set size.
func BenchmarkEngineArmCancel(b *testing.B) {
	for _, tc := range []struct {
		name    string
		pending int
		d       Time
	}{
		{"heap-1k", 1_000, 1000},
		{"heap-100k", 100_000, 1000},
		{"wheel-1k", 1_000, wheelCutoff + 10*wheelGran},
		{"wheel-100k", 100_000, wheelCutoff + 10*wheelGran},
	} {
		b.Run(tc.name, func(b *testing.B) { benchArmCancel(b, tc.pending, tc.d) })
	}
}

// benchDrain measures end-to-end schedule → (cascade/drain →) pop → run
// for batches of `pending` events. Offsets below wheelCutoff keep every
// event heap-resident (baseline); the wheel variant spreads events
// across the level-0/1 span so frontier advance, cascades, and bucket
// drains are all included in the per-event cost.
func benchDrain(b *testing.B, pending int, wheel bool) {
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
			var off Time
			if wheel {
				off = wheelCutoff + Time((j*2654435761)>>8&(1<<22-1))
			} else {
				off = Time((j*2654435761)>>16&4095 + 1)
			}
			e.CallAt(base+off, nop)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDrain compares schedule-to-execution throughput of the
// heap-only near band against wheel-routed far band at 1k and 100k
// event batches.
func BenchmarkEngineDrain(b *testing.B) {
	for _, tc := range []struct {
		name    string
		pending int
		wheel   bool
	}{
		{"heap-1k", 1_000, false},
		{"heap-100k", 100_000, false},
		{"wheel-1k", 1_000, true},
		{"wheel-100k", 100_000, true},
	} {
		b.Run(tc.name, func(b *testing.B) { benchDrain(b, tc.pending, tc.wheel) })
	}
}

// BenchmarkEngineSpawn measures proc creation (one iter.Pull coroutine
// each), execution, and reaping in batches.
func BenchmarkEngineSpawn(b *testing.B) {
	e := NewEngine(1)
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
// capacity-1 queues: the full unblock → ready queue → coroutine-switch
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
