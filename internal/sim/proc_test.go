package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestShutdownReleasesEveryCoroutine: whatever state a proc is in when
// the run stops — finished, panicked, blocked on a Cond, sleeping, or
// spawned but never started — and with finished bodies' coroutines
// parked on the pool, Shutdown leaves no coroutine behind.
func TestShutdownReleasesEveryCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	c := NewCond(e)
	e.Spawn("finished", func(p *Proc) { p.Sleep(1) })
	e.SpawnDaemon("cond-daemon", func(p *Proc) { c.Wait(p, "forever") })
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("panicker", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	if err := e.RunUntil(10); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("RunUntil err = %v, want the panic", err)
	}
	// The finished and panicked bodies parked their coroutines; the
	// unstarted proc takes one of them.
	e.Spawn("never-started", func(p *Proc) { t.Error("never-started proc ran its body") })
	if got := runtime.NumGoroutine() - before; got != 4 || len(e.pool) != 1 {
		t.Fatalf("%d coroutines live and %d pooled before Shutdown, want 4 (daemon, sleeper, unstarted, pooled) and 1", got, len(e.pool))
	}
	e.Shutdown()
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines after Shutdown = %d, want %d", got, before)
	}
	if e.LiveProcs() != 0 || len(e.procs) != 0 {
		t.Fatalf("after Shutdown: live=%d table=%d, want 0/0", e.LiveProcs(), len(e.procs))
	}
}

// TestShutdownRunsKilledProcDefers: killing a blocked proc unwinds its
// body, so its deferred calls run (innermost first) and nothing after
// the blocking call does.
func TestShutdownRunsKilledProcDefers(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	q := NewQueue[int](e, "q", 0)
	var log []string
	body := func(name string, block func(*Proc)) func(*Proc) {
		return func(p *Proc) {
			defer func() { log = append(log, name+":outer") }()
			defer func() { log = append(log, name+":inner") }()
			block(p)
			log = append(log, name+":continued")
		}
	}
	e.SpawnDaemon("cond", body("cond", func(p *Proc) { c.Wait(p, "forever") }))
	e.SpawnDaemon("queue", body("queue", func(p *Proc) { q.Get(p) }))
	e.SpawnDaemon("parked", body("parked", func(p *Proc) { p.Park("forever") }))
	e.Spawn("sleeper", body("sleeper", func(p *Proc) { p.Sleep(Second) }))
	if err := e.RunUntil(Microsecond); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(log)
	want := "[cond:inner cond:outer parked:inner parked:outer queue:inner queue:outer sleeper:inner sleeper:outer]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("unwound = %s, want %s", got, want)
	}
}

// TestResumeInlineKeepsEventPosition: a proc spawned from a callback and
// resumed with ResumeInline continues inside the resuming callback's
// event — between that callback's own statements and before any later
// event of the same instant — and the round trip schedules nothing.
func TestResumeInlineKeepsEventPosition(t *testing.T) {
	e := NewEngine(1)
	var log []string
	var parked *Proc
	e.CallAt(10, func() {
		parked = e.Spawn("inline", func(p *Proc) {
			log = append(log, fmt.Sprintf("start@%d", p.Now()))
			p.Park("await inline resume")
			log = append(log, fmt.Sprintf("resumed@%d", p.Now()))
			p.Yield()
			log = append(log, "after-yield")
		})
	})
	e.CallAt(20, func() { log = append(log, "a") })
	e.CallAt(20, func() {
		log = append(log, "b")
		e.ResumeInline(parked)
		log = append(log, "b-end")
	})
	e.CallAt(20, func() { log = append(log, "c") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(log), "[start@10 a b resumed@20 b-end c after-yield]"; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	// Four CallAts, the spawn and the Yield; the inline resume adds none.
	if st := e.Stats(); st.Scheduled != 6 || st.ProcSwitches != 3 {
		t.Fatalf("scheduled=%d switches=%d, want 6/3", st.Scheduled, st.ProcSwitches)
	}
}

// TestBlockingRoundTripsAllocFree pins proc-to-proc communication at zero
// steady-state allocations: a Queue Put/Get ping-pong in which both sides
// block, and a contended Resource Acquire/Release hand-off. Each
// RunUntil step is one full round trip.
func TestBlockingRoundTripsAllocFree(t *testing.T) {
	e := NewEngine(1)
	ping := NewQueue[int](e, "ping", 1)
	pong := NewQueue[int](e, "pong", 1)
	e.SpawnDaemon("a", func(p *Proc) {
		for i := 0; ; i++ {
			ping.Put(p, i)
			pong.Get(p)
			p.Sleep(1)
		}
	})
	e.SpawnDaemon("b", func(p *Proc) {
		for {
			pong.Put(p, ping.Get(p))
		}
	})
	r := NewResource(e, "unit", 1)
	for _, name := range []string{"x", "y"} {
		e.SpawnDaemon(name, func(p *Proc) {
			for {
				r.Acquire(p, 0)
				p.Sleep(1)
				r.Release()
			}
		})
	}
	step := func() {
		if err := e.RunUntil(e.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("blocking round trip allocates %.2f/op, want 0", avg)
	}
	e.Shutdown()
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestPooledCoroutineRunsAfterPanic: a body that panics ends only
// itself. The next body on the same coroutine runs cleanly, and Run
// still reports the panic.
func TestPooledCoroutineRunsAfterPanic(t *testing.T) {
	e := NewEngine(1)
	want := `proc "panicker" panicked: boom`
	first := e.Spawn("panicker", func(p *Proc) { panic("boom") })
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run err = %v, want the panic", err)
	}
	ran := false
	second := e.Spawn("after", func(p *Proc) { ran = true })
	if second.co != first.co {
		t.Fatal("the proc after the panic did not reuse the panicked body's coroutine")
	}
	// The engine loop stops at the reported panic, so run the body
	// directly.
	e.resume(second)
	if !ran || second.state != procDone || len(e.pool) != 1 {
		t.Fatalf("body after the panic: ran=%v state=%d pooled=%d", ran, second.state, len(e.pool))
	}
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run err after the second body = %v, want the panic", err)
	}
	e.Shutdown()
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestKillUnwindsOnlyItsBody: killing a proc on a reused coroutine runs
// that body's defers, not those of the body the coroutine ran before,
// and leaves the coroutine parked and able to run another body.
func TestKillUnwindsOnlyItsBody(t *testing.T) {
	e := NewEngine(1)
	var log []string
	body := func(name string, block bool) func(*Proc) {
		return func(p *Proc) {
			defer func() { log = append(log, name+":deferred") }()
			if block {
				p.Park("forever")
			}
			log = append(log, name+":returned")
		}
	}
	done := e.Spawn("done", body("done", false))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	victim := e.SpawnDaemon("victim", body("victim", true))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	co := victim.co
	if co != done.co {
		t.Fatal("victim did not reuse the finished proc's coroutine")
	}
	victim.killed = true
	e.resume(victim)
	if got, want := fmt.Sprint(log), "[done:returned done:deferred victim:deferred]"; got != want {
		t.Fatalf("log = %s, want %s", got, want)
	}
	if len(e.pool) != 1 || e.pool[0] != co || co.p != nil || co.fn != nil {
		t.Fatal("the killed body's coroutine is not parked empty on the pool")
	}
	if next := e.Spawn("next", body("next", false)); next.co != co {
		t.Fatal("the proc after the kill did not reuse the coroutine")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := log[len(log)-1]; got != "next:deferred" {
		t.Fatalf("last log entry = %s, want next:deferred", got)
	}
	e.Shutdown()
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialSpawnsReuseCoroutines: 10,000 procs in one Run, each
// spawning the next as its last act, keep the goroutine count within the
// peak of live procs (two) plus a small constant, not one per proc.
func TestSequentialSpawnsReuseCoroutines(t *testing.T) {
	const n = 10000
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	peak, spawned := 0, 0
	var body func(p *Proc)
	body = func(p *Proc) {
		p.Sleep(1)
		if g := runtime.NumGoroutine() - before; g > peak {
			peak = g
		}
		if spawned++; spawned < n {
			e.Spawn("link", body)
		}
	}
	e.Spawn("link", body)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if spawned != n || e.Stats().ProcsReaped != n {
		t.Fatalf("spawned %d, reaped %d, want %d", spawned, e.Stats().ProcsReaped, n)
	}
	if peak > 2+2 {
		t.Fatalf("peak of %d goroutines over the baseline for at most 2 live procs", peak)
	}
	e.Shutdown()
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines after Shutdown = %d, more than the %d before", got, before)
	}
}

// TestCallbackSpawnReusesFinishedCoroutine: a proc spawned from a
// callback runs on the coroutine a finished proc parked.
func TestCallbackSpawnReusesFinishedCoroutine(t *testing.T) {
	e := NewEngine(1)
	first := e.Spawn("first", func(p *Proc) { p.Sleep(5) })
	var second *Proc
	e.CallAt(10, func() {
		second = e.Spawn("second", func(p *Proc) { p.Sleep(5) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if second == nil || second.co != first.co {
		t.Fatal("the callback's proc did not reuse the finished proc's coroutine")
	}
	if len(e.pool) != 1 {
		t.Fatalf("%d coroutines pooled, want 1", len(e.pool))
	}
	e.Shutdown()
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}
