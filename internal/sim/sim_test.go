package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCallbackOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.At(10, func() { got = append(got, 11) }) // same time: FIFO by seq
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(10, func() { fired = true })
	tm.Cancel()
	tm.Cancel() // double cancel is a no-op
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, fmt.Sprintf("a0@%d", p.Now()))
		p.Sleep(100)
		trace = append(trace, fmt.Sprintf("a1@%d", p.Now()))
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(50)
		trace = append(trace, fmt.Sprintf("b@%d", p.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a0@0 b@50 a1@100]"
	if fmt.Sprint(trace) != want {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestZeroSleepAndYield(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Yield()
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b1")
		p.Sleep(0) // no-op: must not yield
		trace = append(trace, "b2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a1 b1 b2 a2]"
	if fmt.Sprint(trace) != want {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ticks int
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10)
			ticks++
		}
	})
	if err := e.RunUntil(35); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 || e.Now() != 35 {
		t.Fatalf("ticks=%d now=%v, want 3 ticks at t=35", ticks, e.Now())
	}
	// Resume the rest of the run.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks=%d after full run, want 10", ticks)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	e.Spawn("stuck", func(p *Proc) {
		c.Wait(p, "never signaled")
	})
	err := e.Run()
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck (never signaled)" {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
	e.Shutdown()
}

func TestDaemonsDoNotDeadlock(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, "work", 0)
	e.SpawnDaemon("worker", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		q.Put(p, 1)
		p.Sleep(5)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon blocked forever should not deadlock: %v", err)
	}
	e.Shutdown()
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		panic("kaboom")
	})
	// The panic is recovered inside the proc's coroutine: Run returns it
	// as an error, with the crashing body's stack, instead of re-panicking.
	err := e.Run()
	if err == nil || !containsStr(err.Error(), `sim: proc "boom" panicked: kaboom`) {
		t.Fatalf("err = %v, want panic error", err)
	}
	if !containsStr(err.Error(), "goroutine ") || !containsStr(err.Error(), "TestProcPanicPropagates") {
		t.Fatalf("panic error carries no stack of the crashing body:\n%v", err)
	}
	e.Shutdown()
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCondSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	var woke []string
	for _, n := range []string{"w1", "w2", "w3"} {
		name := n
		e.Spawn(name, func(p *Proc) {
			c.Wait(p, "test")
			woke = append(woke, name+fmt.Sprint(int64(p.Now())))
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(10)
		c.Signal() // wakes w1 only
		p.Sleep(10)
		c.Broadcast() // wakes w2, w3
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[w110 w220 w320]"
	if fmt.Sprint(woke) != want {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
}

func TestQueueBlockingAndCapacity(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, "q", 2)
	var got []int
	var putDone []Time
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 4; i++ {
			q.Put(p, i)
			putDone = append(putDone, p.Now())
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(100)
			got = append(got, q.Get(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("got %v", got)
	}
	// First two puts complete immediately; 3rd and 4th block until space.
	if putDone[0] != 0 || putDone[1] != 0 || putDone[2] != 100 || putDone[3] != 200 {
		t.Fatalf("putDone = %v", putDone)
	}
}

func TestQueueTryOps(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[string](e, "q", 1)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	if !q.TryPut("a") {
		t.Fatal("TryPut on empty queue failed")
	}
	if q.TryPut("b") {
		t.Fatal("TryPut on full queue succeeded")
	}
	v, ok := q.TryGet()
	if !ok || v != "a" {
		t.Fatalf("TryGet = %q, %v", v, ok)
	}
}

func TestResourcePriorityAndFIFO(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cores", 1)
	var order []string
	hold := func(name string, prio int, start Time) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(start)
			r.Acquire(p, prio)
			order = append(order, name)
			p.Sleep(100)
			r.Release()
		})
	}
	hold("first", 0, 0) // takes the unit at t=0
	hold("low1", 0, 10) // queued
	hold("low2", 0, 20) // queued after low1
	hold("high", 5, 30) // queued but higher priority
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[first high low1 low2]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if r.InUse() != 0 {
		t.Fatalf("resource still in use: %d", r.InUse())
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire failed on free resource")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire succeeded on exhausted resource")
	}
	r.Release()
	if r.InUse() != 0 {
		t.Fatal("release did not free unit")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		e := NewEngine(42)
		q := NewQueue[int](e, "q", 4)
		var log []string
		for i := 0; i < 5; i++ {
			id := i
			e.Spawn(fmt.Sprintf("p%d", id), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(Time(p.Rand().Intn(50) + 1))
					q.TryPut(id*100 + j)
					if v, ok := q.TryGet(); ok {
						log = append(log, fmt.Sprintf("%d@%d", v, p.Now()))
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(log)
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("two runs with the same seed diverged")
	}
}

func TestSpawnFromProcAndCallback(t *testing.T) {
	e := NewEngine(1)
	var births []int64
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		p.e.Spawn("child", func(c *Proc) {
			births = append(births, int64(c.Now()))
		})
		p.Sleep(10)
	})
	e.After(5, func() {
		e.Spawn("cbchild", func(c *Proc) {
			births = append(births, int64(c.Now()))
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(births) != "[5 10]" {
		t.Fatalf("births = %v", births)
	}
}

// Property: events run in nondecreasing time order regardless of
// insertion order (the heap side; cross-container ordering is covered by
// TestInterleavingMatchesReferenceOrder).
func TestEventHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine(1)
		var popped []Time
		for _, ti := range times {
			e.schedule(Time(ti), nil, func() { popped = append(popped, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(popped) != len(times) {
			return false
		}
		return sort.SliceIsSorted(popped, func(i, j int) bool { return popped[i] < popped[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summary mean/std match a direct two-pass computation.
func TestSummaryProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Summary
		var xs []float64
		for i := 0; i < int(n)+2; i++ {
			x := rng.NormFloat64()*10 + 5
			xs = append(xs, x)
			s.Add(x)
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		if diff := s.Mean() - mean; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		return s.N() == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesAddInterval(t *testing.T) {
	s := NewSeries(10)
	s.AddInterval(5, 25, 2.0) // spans bins 0,1,2: 5ns, 10ns, 5ns
	bins := s.Bins()
	if len(bins) != 3 {
		t.Fatalf("bins = %v", bins)
	}
	if !close1(bins[0], 0.5) || !close1(bins[1], 1.0) || !close1(bins[2], 0.5) {
		t.Fatalf("bins = %v, want [0.5 1 0.5]", bins)
	}
}

func close1(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

func TestPercentiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ps := Percentiles(xs, 0, 50, 100)
	if ps[0] != 1 || ps[1] != 5.5 || ps[2] != 10 {
		t.Fatalf("percentiles = %v", ps)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:             "500ns",
		1500:            "1.50us",
		2 * Millisecond: "2.000ms",
		3 * Second:      "3.0000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestShutdownReapsProcs(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	for i := 0; i < 10; i++ {
		e.SpawnDaemon(fmt.Sprintf("d%d", i), func(p *Proc) {
			c.Wait(p, "forever")
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if e.live != 0 {
		t.Fatalf("live procs after shutdown: %d", e.live)
	}
}
