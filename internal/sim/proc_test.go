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
// spawned but never started — Shutdown leaves no coroutine behind.
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
	e.Spawn("never-started", func(p *Proc) { t.Error("never-started proc ran its body") })
	if got := runtime.NumGoroutine() - before; got != 3 {
		t.Fatalf("%d coroutines live before Shutdown, want 3 (daemon, sleeper, unstarted)", got)
	}
	e.Shutdown()
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
}
