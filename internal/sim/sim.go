// Package sim provides the discrete-event simulation kernel that the rest
// of the GENESYS reproduction is built on.
//
// The engine advances a virtual clock by executing events in (time,
// sequence) order. Two kinds of activity exist:
//
//   - callbacks: plain functions scheduled with At/After (cancellable) or
//     CallAt/CallAfter (fire-and-forget, allocation-free); they run inline
//     in the engine loop and must not block, and
//   - processes: coroutines written in ordinary imperative style that
//     interact with virtual time through Sleep, Cond.Wait, Queue and
//     Resource operations.
//
// Exactly one process (or the engine loop itself) runs at any instant:
// the engine resumes a process's coroutine (iter.Pull) and the process
// suspends back into the engine when it blocks, so simulations are
// bit-deterministic for a given seed and free of data races by
// construction.
//
// Internally the engine keeps two event containers whose union is always
// consumed in strict (time, sequence) order:
//
//   - a calendar queue of fixed-width time buckets for events less than
//     farCutoff ahead, same-instant ones included (calendar.go), where
//     scheduling, canceling and finding the next event are O(1) in the
//     common case; and
//   - a min-heap for events further out (far.go), which drains into the
//     calendar one granule at a time before the clock can reach them.
//
// Events are plain values stored inline in those containers, so
// steady-state scheduling performs no allocation; only the cancellable
// At/After path allocates its Timer handle. See EngineStats for the
// counters that expose this machinery.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Micros constructs a Time from a (possibly fractional) number of
// microseconds.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micro reports t as a floating-point number of microseconds.
func (t Time) Micro() float64 { return float64(t) / float64(Microsecond) }

// Milli reports t as a floating-point number of milliseconds.
func (t Time) Milli() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Micro())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Milli())
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

// event is one scheduled occurrence, stored by value in a calendar node
// or the far heap. Exactly one of p or fn is set; tmr is non-nil only
// for cancellable At/After callbacks.
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
	tmr *Timer
}

// Timer.loc values: the container an event lives in, if any.
const (
	timerInert = -1 // fired or canceled
	timerInCal = -2 // calendar, at node index pos
	timerInFar = -3 // far heap, at heap index pos
)

// Timer is a handle to a scheduled callback that can be canceled. loc
// identifies the container currently holding the event (the calendar or
// the far heap) and pos its index there, so cancellation removes the
// event at once: O(1) from the calendar, O(log n) from the far heap.
type Timer struct {
	e   *Engine
	pos int
	loc int
}

// Cancel stops the timer's callback from running. The event is removed
// from the engine immediately — its closure (and any state the closure
// captures) is released at cancel time, not when the event's instant is
// reached — so mass cancellation (e.g. retransmit watchdogs disarmed by
// fast completions) leaves no dead weight in the calendar or the far heap.
// Canceling an already-fired or already-canceled timer is a no-op.
func (t *Timer) Cancel() {
	if t == nil || t.e == nil || t.loc == timerInert {
		return
	}
	e := t.e
	e.stats.TimersCanceled++
	if t.loc == timerInCal {
		e.cal.remove(int32(t.pos))
	} else {
		e.far.remove(t.pos)
		e.stats.FarCanceled++
	}
	t.loc = timerInert
}

// EngineStats counts the engine's own mechanics: how many events were
// scheduled, how many of those were for the current instant, how many
// callbacks ran inline versus process resumptions (each resumption is one
// coroutine switch in and one out), and timer/process lifecycle totals.
// They never influence virtual-time behavior; they exist so
// host-throughput work (events per host-second) is measurable, and are
// exported in the obs metrics registry under sim.*.
type EngineStats struct {
	Scheduled      uint64 // events ever scheduled (calendar or far heap)
	ReadyFast      uint64 // events scheduled for the current instant
	CallbacksRun   uint64 // callback events executed inline
	ProcSwitches   uint64 // engine→process coroutine resumptions
	TimersCanceled uint64 // At/After timers canceled before firing
	FarScheduled   uint64 // far-future events routed to the far heap
	FarCanceled    uint64 // timers canceled while in the far heap
	ProcsSpawned   uint64 // processes ever spawned
	ProcsReaped    uint64 // completed processes removed from the proc table
	CalendarPeak   int    // high-water mark of calendar-resident events
	FarPeak        int    // high-water mark of far-heap-resident events
}

// Engine is the discrete-event simulation core.
type Engine struct {
	now Time
	seq uint64

	// cal is the calendar queue holding events less than farCutoff in
	// the future, plus everything the far heap has drained (see
	// calendar.go).
	cal calendar

	// far holds the far-future events; it drains into the calendar before
	// the clock can reach them (see far.go), which keeps every calendar
	// resident within its horizon.
	far farHeap

	// inProc is true while a process body is running; it guards
	// ResumeInline against being called outside callback context.
	inProc bool

	procs    []*Proc // live (not yet completed) processes
	pool     []*coro // parked coroutines, each ready to run a new body
	live     int     // procs spawned and not yet done
	liveUser int     // live non-daemon procs
	fatal    error

	stats EngineStats

	// executed and discarded count events run by RunUntil and dropped
	// unrun by Shutdown, for Audit. They stay out of EngineStats, whose
	// counters are published and checkpointed.
	executed  uint64
	discarded uint64

	// Rand is the engine-wide deterministic random source.
	Rand *rand.Rand
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{Rand: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Stats returns a snapshot of the engine's mechanical counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Pending returns the number of events currently scheduled and not yet
// executed.
func (e *Engine) Pending() int { return e.cal.count + len(e.far.evs) }

// FarPending returns the number of far-future events currently in the
// far heap (not yet drained into the near-term calendar).
func (e *Engine) FarPending() int { return len(e.far.evs) }

// LiveProcs returns the number of processes spawned and not yet finished.
func (e *Engine) LiveProcs() int { return e.live }

// Audit checks the engine's conservation laws and reports each one
// broken: every proc spawned is reaped or still live; every event
// scheduled has run, been canceled, been dropped by Shutdown or is still
// pending; and no parked coroutine still holds a proc or body. Call it
// from outside RunUntil and Shutdown.
func (e *Engine) Audit() error {
	var errs []error
	st := e.stats
	if st.ProcsSpawned != st.ProcsReaped+uint64(e.live) {
		errs = append(errs, fmt.Errorf("sim audit: spawned %d != reaped %d + live %d",
			st.ProcsSpawned, st.ProcsReaped, e.live))
	}
	if done := e.executed + st.TimersCanceled + e.discarded + uint64(e.Pending()); st.Scheduled != done {
		errs = append(errs, fmt.Errorf("sim audit: scheduled %d != executed %d + canceled %d + discarded %d + pending %d",
			st.Scheduled, e.executed, st.TimersCanceled, e.discarded, e.Pending()))
	}
	for i, c := range e.pool {
		if c.p != nil || c.fn != nil {
			errs = append(errs, fmt.Errorf("sim audit: pooled coroutine %d still holds a proc", i))
		}
	}
	return errors.Join(errs...)
}

// --- event containers ------------------------------------------------------

// eventLess is the engine's total order: time, then scheduling sequence.
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// place routes a newly scheduled event: events less than farCutoff
// ahead, same-instant ones included, go into the calendar, and far-future
// events wait in the far heap.
func (e *Engine) place(ev event) {
	if ev.t == e.now {
		e.stats.ReadyFast++
	} else if ev.t-e.now >= farCutoff {
		e.farInsert(ev)
		return
	}
	e.calPush(ev)
}

func (e *Engine) schedule(t Time, p *Proc, fn func()) { e.enqueue(event{t: t, p: p, fn: fn}) }

// enqueue stamps ev with the next sequence number and places it.
func (e *Engine) enqueue(ev event) {
	if ev.t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", ev.t, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.stats.Scheduled++
	e.place(ev)
}

// At schedules fn to run as a callback at absolute time t. Callbacks run
// inline in the engine loop and must not block. The returned Timer can
// cancel the callback; code that never cancels should prefer CallAt,
// which allocates nothing.
func (e *Engine) At(t Time, fn func()) *Timer {
	return e.AtReuse(t, fn, nil)
}

// After schedules fn to run as a callback d from now.
func (e *Engine) After(d Time, fn func()) *Timer {
	return e.AtReuse(e.now+d, fn, nil)
}

// AtReuse is At recycling tm — a Timer from a previous arm that has
// since fired or been canceled — instead of allocating a new one. A nil,
// foreign, or still-armed tm falls back to a fresh Timer, so callers can
// unconditionally store the result. Code that re-arms one deadline per
// request (the fleet session timeout) stays allocation-free this way.
func (e *Engine) AtReuse(t Time, fn func(), tm *Timer) *Timer {
	if tm == nil || tm.e != e || tm.loc != timerInert {
		tm = &Timer{e: e, loc: timerInert}
	}
	e.enqueue(event{t: t, fn: fn, tmr: tm})
	return tm
}

// CallAt schedules fn to run as a callback at absolute time t, with no
// cancellation handle. This is the fast path for fixed-latency hops (IRQ
// delivery, datagram delivery, watchdog ticks): the event is stored by
// value, so scheduling performs no allocation and the hop runs inline in
// the engine loop instead of costing a process switch.
func (e *Engine) CallAt(t Time, fn func()) {
	e.schedule(t, nil, fn)
}

// CallAfter schedules fn to run as a callback d from now, with no
// cancellation handle (see CallAt).
func (e *Engine) CallAfter(d Time, fn func()) {
	e.schedule(e.now+d, nil, fn)
}

// Sleep suspends the process for duration d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	p.e.schedule(p.e.now+d, p, nil)
	p.block("sleep")
}

// Yield reschedules the process at the current time, letting any other
// event scheduled for this instant run first.
func (p *Proc) Yield() {
	p.e.schedule(p.e.now, p, nil)
	p.block("yield")
}

// block suspends the process until its resumption event runs: one
// already scheduled (Sleep, Yield) or one a Cond, Queue or Resource
// schedules later.
func (p *Proc) block(reason string) {
	p.state = procBlocked
	p.reason = reason
	p.switchToEngine()
}

// unblock schedules p to resume at the current time.
func (p *Proc) unblock() {
	p.e.schedule(p.e.now, p, nil)
	p.state = procRunnable
}

// Park suspends the process with no scheduled wake-up until an engine
// callback resumes it with Engine.ResumeInline. Unlike Cond.Wait, the
// resumption is not a scheduled event: the process continues inside the
// event that resumed it, at the same (t, seq) position. reason is shown
// in deadlock reports.
func (p *Proc) Park(reason string) { p.block(reason) }

// ResumeInline switches into a parked process from inside a running
// callback: p continues from Park within the current event —
// exactly as if the event had been a resumption of p itself — rather
// than via a freshly scheduled event, so the engine's event sequence is
// unchanged by the park/resume round trip. It must be called from
// callback context (the engine loop), never from a process.
func (e *Engine) ResumeInline(p *Proc) {
	if e.inProc {
		panic("sim: ResumeInline called from process context")
	}
	if p.state != procBlocked {
		panic(fmt.Sprintf("sim: ResumeInline of %s proc %q", []string{"new", "runnable", "running", "blocked", "done"}[p.state], p.name))
	}
	e.resume(p)
}

// ErrDeadlock is returned by Run when no events remain but non-daemon
// processes are still blocked.
type ErrDeadlock struct {
	Now     Time
	Blocked []string // "name (reason)" for each blocked non-daemon proc
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d proc(s) blocked forever: %s",
		e.Now, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// Run executes events until none remain. It returns nil on quiescence
// (all non-daemon processes finished), an *ErrDeadlock if non-daemon
// processes are blocked with no pending events, or the panic error of a
// crashed process.
func (e *Engine) Run() error { return e.RunUntil(MaxTime) }

// RunUntil executes events with time ≤ limit. Reaching the limit with
// events still pending is not an error; the clock is left at limit. A
// limit before the current time is an error and leaves the clock alone:
// virtual time never runs backwards.
func (e *Engine) RunUntil(limit Time) error {
	if limit < e.now {
		return fmt.Errorf("sim: run until %v: clock is already at %v", limit, e.now)
	}
	for {
		if e.fatal != nil {
			return e.fatal
		}
		// Bring the far heap's drain frontier past the next committed
		// instant: far events are strictly beyond the current time, so
		// draining against the calendar's minimum — or, with an empty
		// calendar, draining the first far granule — is enough to keep
		// the global (t, seq) order exact.
		if len(e.far.evs) > 0 {
			if e.cal.count > 0 {
				e.farCatchUp(e.calMin().t)
			} else {
				e.farAdvance(limit)
			}
		}
		if e.cal.count == 0 {
			if len(e.far.evs) > 0 {
				// Only far events remain, all beyond limit.
				e.now = limit
				return nil
			}
			if e.liveUser > 0 {
				return e.deadlockErr()
			}
			return nil
		}
		if e.calMin().t > limit {
			e.now = limit
			return nil
		}
		ev := e.calPop()
		e.executed++
		e.now = ev.t
		if ev.tmr != nil {
			ev.tmr.loc = timerInert
		}
		if ev.p != nil {
			e.resume(ev.p)
		} else {
			e.stats.CallbacksRun++
			ev.fn()
		}
	}
}

func (e *Engine) deadlockErr() error {
	var blocked []string
	for _, p := range e.procs {
		if !p.daemon && p.state == procBlocked {
			blocked = append(blocked, fmt.Sprintf("%s (%s)", p.name, p.reason))
		}
	}
	sort.Strings(blocked)
	return &ErrDeadlock{Now: e.now, Blocked: blocked}
}
