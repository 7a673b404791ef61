package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// eventRec identifies one scheduled event by its (time, seq) key — the
// total order the engine promises to execute in.
type eventRec struct {
	t   Time
	seq uint64
}

// TestInterleavingMatchesReferenceOrder is the determinism property test
// for the three-container design (ready queue / calendar / timer wheel):
// a random workload where callbacks recursively schedule more work at the
// current instant (ready-queue path), in the near future (calendar path),
// and far enough out to park in every wheel level and the
// overflow list, with a random subset of timers canceled from whichever
// container holds them, must execute in exactly the (t, seq) total order
// a single reference priority queue would produce.
func TestInterleavingMatchesReferenceOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(1)
		var got []eventRec    // order the engine actually ran events in
		var expect []eventRec // reference: every surviving event's key
		var canceled []*Timer // timers to cancel from inside the run
		const maxEvents = 300
		count := 0

		var plant func(depth int)
		plant = func(depth int) {
			n := rng.Intn(4)
			for i := 0; i < n && count < maxEvents; i++ {
				count++
				var d Time
				switch rng.Intn(6) {
				case 0, 1:
					d = 0 // same-instant: exercises the ready queue
				case 2, 3:
					d = Time(rng.Intn(40) + 1) // near future: the calendar
				case 4:
					// Wheel range: level 0 through level 2 (cutoff ≤ d
					// < full level-2 span), crossing cascade boundaries.
					d = wheelCutoff + Time(rng.Int63n(int64(wheelGran)*wheelSlotsPer*wheelSlotsPer*wheelSlotsPer))
				default:
					// Beyond the level-2 span: the overflow list, re-filed
					// at level-2 cascade boundaries.
					d = Time(int64(wheelGran)*wheelSlotsPer*wheelSlotsPer*wheelSlotsPer + rng.Int63n(int64(wheelGran)*wheelSlotsPer*wheelSlotsPer))
				}
				sq := e.seq + 1 // seq the next schedule call will assign
				rec := eventRec{e.now + d, sq}
				dd := depth
				fire := func() {
					got = append(got, eventRec{e.now, rec.seq})
					if dd < 5 {
						plant(dd + 1)
					}
				}
				switch rng.Intn(3) {
				case 0: // fire-and-forget fast path
					e.CallAfter(d, fire)
					expect = append(expect, rec)
				case 1: // cancellable, kept
					e.After(d, fire)
					expect = append(expect, rec)
				default: // cancellable, canceled before it can run
					tm := e.After(d, func() {
						t.Errorf("canceled timer fired (seed %d)", seed)
					})
					// Cancel while both containers hold live events, so
					// unlinking from a calendar bucket and hole-punching in
					// the ready queue are both exercised.
					tm.Cancel()
					canceled = append(canceled, tm)
				}
			}
		}
		plant(0)
		if err := e.Run(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		for _, c := range canceled {
			c.Cancel() // leftovers: must be fired-or-gone no-ops
		}
		sort.Slice(expect, func(i, j int) bool {
			if expect[i].t != expect[j].t {
				return expect[i].t < expect[j].t
			}
			return expect[i].seq < expect[j].seq
		})
		if fmt.Sprint(got) != fmt.Sprint(expect) {
			t.Errorf("seed %d: order diverged from reference\n got: %v\nwant: %v",
				seed, got, expect)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestReadyQueueFIFOAtInstant checks that same-instant events — mixed
// zero-delay callbacks, yields and unblocks — run in scheduling order.
func TestReadyQueueFIFOAtInstant(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(10)
		e.CallAfter(0, func() { got = append(got, 1) })
		e.CallAt(e.Now(), func() { got = append(got, 2) })
		e.After(0, func() { got = append(got, 3) })
		p.Yield() // runs after 1, 2, 3
		got = append(got, 4)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("got %v, want [1 2 3 4]", got)
	}
}

// TestCalendarBeforeReadyAtSameInstant: an event scheduled earlier (lower
// seq) for time T from afar (calendar) must run before a ready-queue event
// created at T with a higher seq — the cross-container comparison.
func TestCalendarBeforeReadyAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []string
	// Scheduled first: sits in the calendar until t=10.
	e.CallAt(10, func() { got = append(got, "cal-early") })
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(10)
		// Wait: driver wakes at t=10. Its wake event has seq 3 (spawn=2),
		// so it runs after cal-early (seq 1)? The resume event was
		// scheduled by Sleep at t=0 with seq 3, so calendar order at t=10
		// is (10,1) cal-early then (10,3) driver.
		e.CallAfter(0, func() { got = append(got, "ready-late") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[cal-early ready-late]" {
		t.Fatalf("got %v", got)
	}
}

// TestCancelReleasesEventImmediately: canceling a timer must remove the
// event (and its closure) from the engine at cancel time — pending count
// drops and no calendar bucket holds dead weight.
func TestCancelReleasesEventImmediately(t *testing.T) {
	e := NewEngine(1)
	tms := make([]*Timer, 0, 100)
	for i := 0; i < 100; i++ {
		tms = append(tms, e.After(Time(1000+i), func() { t.Error("canceled fired") }))
	}
	if n := calResidents(t, e); e.Pending() != 100 || n != 100 {
		t.Fatalf("pending=%d calendar=%d, want 100", e.Pending(), n)
	}
	for _, tm := range tms {
		tm.Cancel()
	}
	if e.Pending() != 0 {
		t.Fatalf("pending=%d after mass cancel, want 0", e.Pending())
	}
	if n := calResidents(t, e); n != 0 {
		t.Fatalf("calendar holds %d dead events after cancel, want 0", n)
	}
	if got := e.Stats().TimersCanceled; got != 100 {
		t.Fatalf("TimersCanceled=%d, want 100", got)
	}
	// Double cancel stays a no-op and does not double-count.
	tms[0].Cancel()
	if got := e.Stats().TimersCanceled; got != 100 {
		t.Fatalf("TimersCanceled=%d after double cancel, want 100", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelInReadyQueue: canceling a same-instant timer (parked in the
// ready queue, not the calendar) must also suppress and release it.
func TestCancelInReadyQueue(t *testing.T) {
	e := NewEngine(1)
	var ran []string
	e.CallAt(5, func() {
		tm := e.After(0, func() { ran = append(ran, "canceled") })
		e.CallAfter(0, func() { ran = append(ran, "kept") })
		tm.Cancel()
		if e.Pending() != 1 {
			t.Errorf("pending=%d after ready-queue cancel, want 1", e.Pending())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ran) != "[kept]" {
		t.Fatalf("ran %v, want [kept]", ran)
	}
}

// TestMassCancellationInterleaved cancels from the middle of populated
// calendar buckets while scheduling continues, verifying surviving events still run
// in order — the retransmit-watchdog-disarm pattern.
func TestMassCancellationInterleaved(t *testing.T) {
	e := NewEngine(7)
	rng := rand.New(rand.NewSource(99))
	var fired []Time
	kept := 0
	var tms []*Timer
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			d := Time(rng.Intn(500) + 1)
			if rng.Intn(2) == 0 {
				tms = append(tms, e.After(d, func() { t.Error("canceled timer fired") }))
			} else {
				kept++
				e.CallAfter(d, func() { fired = append(fired, e.Now()) })
			}
		}
		// Disarm every watchdog armed so far, in a scattered order.
		for _, i := range rng.Perm(len(tms)) {
			tms[i].Cancel()
		}
		tms = tms[:0]
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != kept {
		t.Fatalf("fired %d, want %d", len(fired), kept)
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatal("surviving events fired out of order")
	}
}

// TestProcReaping: completed processes leave the proc table; live ones
// stay visible to deadlock detection and Shutdown.
func TestProcReaping(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 1000; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) { p.Sleep(Time(1 + i%7)) })
	}
	c := NewCond(e)
	e.SpawnDaemon("parked", func(p *Proc) { c.Wait(p, "forever") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.procs); got != 1 {
		t.Fatalf("proc table holds %d entries after run, want 1 (the daemon)", got)
	}
	st := e.Stats()
	if st.ProcsSpawned != 1001 || st.ProcsReaped != 1000 {
		t.Fatalf("spawned=%d reaped=%d, want 1001/1000", st.ProcsSpawned, st.ProcsReaped)
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("live=%d, want 1", e.LiveProcs())
	}
	e.Shutdown()
	if e.live != 0 || len(e.procs) != 0 {
		t.Fatalf("after shutdown: live=%d table=%d, want 0/0", e.live, len(e.procs))
	}
}

// TestDeadlockReportAfterReaping: reaping must not hide still-blocked
// procs from the deadlock report.
func TestDeadlockReportAfterReaping(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	for i := 0; i < 10; i++ {
		e.Spawn(fmt.Sprintf("done%d", i), func(p *Proc) { p.Sleep(1) })
	}
	e.Spawn("stuck", func(p *Proc) { c.Wait(p, "never") })
	err := e.Run()
	dl, ok := err.(*ErrDeadlock)
	if !ok {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck (never)" {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
	e.Shutdown()
}

// TestEngineStatsCounts sanity-checks the mechanical counters.
func TestEngineStatsCounts(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("a", func(p *Proc) {
		p.Sleep(5) // calendar event
		p.Yield()  // ready-queue event
	})
	e.CallAfter(3, func() {}) // calendar + callback
	e.CallAfter(0, func() {}) // ready + callback
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CallbacksRun != 2 {
		t.Fatalf("CallbacksRun=%d, want 2", st.CallbacksRun)
	}
	// spawn(now) + yield + CallAfter(0) took the ready queue.
	if st.ReadyFast < 3 {
		t.Fatalf("ReadyFast=%d, want >= 3", st.ReadyFast)
	}
	// spawn wake + sleep wake + yield wake = 3 resumptions.
	if st.ProcSwitches != 3 {
		t.Fatalf("ProcSwitches=%d, want 3", st.ProcSwitches)
	}
	if st.Scheduled != st.ReadyFast+uint64(st.CalendarPeak) && st.Scheduled < st.ReadyFast {
		t.Fatalf("inconsistent stats: %+v", st)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending=%d at quiescence", e.Pending())
	}
}

// TestSchedulePathsAllocFree pins the engine's three schedule paths at
// zero steady-state allocations: calendar inserts, same-instant ready-queue
// inserts, and wheel-resident AtReuse/Cancel pairs. Containers are
// warmed first so the assertion measures the hot path, not first-touch
// slice growth.
func TestSchedulePathsAllocFree(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 4000; i++ {
		e.CallAfter(Time(1+i%2000), fn)
	}
	for i := 0; i < 2000; i++ {
		e.CallAfter(0, fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	if avg := testing.AllocsPerRun(1000, func() { e.CallAfter(1500, fn) }); avg != 0 {
		t.Errorf("calendar CallAfter allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { e.CallAfter(0, fn) }); avg != 0 {
		t.Errorf("ready-queue CallAfter allocates %.2f/op, want 0", avg)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	// Far-future arm/disarm — the fleet timeout pattern: the timer parks
	// in the wheel, is canceled in O(1), and AtReuse recycles the Timer.
	var tm *Timer
	if avg := testing.AllocsPerRun(1000, func() {
		tm = e.AtReuse(e.Now()+wheelCutoff+10*wheelGran, fn, tm)
		tm.Cancel()
	}); avg != 0 {
		t.Errorf("wheel AtReuse+Cancel allocates %.2f/op, want 0", avg)
	}
	if e.WheelPending() != 0 {
		t.Fatalf("wheel holds %d events after cancel loop", e.WheelPending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunUntilWithReadyBacklog: stopping at a limit mid-instant and
// resuming later must preserve order across the ready/calendar boundary.
func TestRunUntilWithReadyBacklog(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.CallAt(10, func() {
		got = append(got, "a")
		e.CallAfter(0, func() { got = append(got, "b") })
		e.CallAfter(5, func() { got = append(got, "c") })
	})
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	// a and b run at t=10; c is beyond... both a and b are at t=10 ≤ 10.
	if fmt.Sprint(got) != "[a b]" {
		t.Fatalf("at limit: got %v, want [a b]", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("after resume: got %v", got)
	}
	if e.Now() != 15 {
		t.Fatalf("now=%v, want 15", e.Now())
	}
}

// calResidents walks every calendar bucket's list and returns how many
// events it holds, failing t if a resident is dead, sits in the wrong
// bucket, or breaks the horizon invariant (now ≤ t < now+calSpan, and
// in fact under wheelCutoff+wheelGran ahead), or if the cached minimum
// is not the earliest resident.
func calResidents(t *testing.T, e *Engine) int {
	t.Helper()
	c := &e.cal
	n := 0
	var first *event
	for b, h := range c.head {
		if h == 0 {
			continue
		}
		for i := h; ; {
			ev := &c.nodes[i].ev
			switch {
			case ev.p == nil && ev.fn == nil:
				t.Errorf("bucket %d holds a dead node", b)
			case int(int64(ev.t)>>calShift&calMask) != b:
				t.Errorf("event at %v filed in bucket %d", ev.t, b)
			case ev.t < e.now || ev.t-e.now >= calSpan || ev.t-e.now >= wheelCutoff+wheelGran:
				t.Errorf("event at %v outside the horizon of now=%v", ev.t, e.now)
			}
			if first == nil || eventLess(ev, first) {
				first = ev
			}
			n++
			if i = c.nodes[i].next; i == h {
				break
			}
		}
	}
	if n != c.count {
		t.Errorf("calendar lists hold %d events, count says %d", n, c.count)
	}
	if c.min != 0 && &c.nodes[c.min].ev != first {
		t.Errorf("cached minimum at %v, earliest resident at %v", c.nodes[c.min].ev.t, first.t)
	}
	return n
}

// TestRunUntilStopsMatchReferenceOrder drives a random workload through
// RunUntil stops at random instants — including long idle gaps in which
// only wheel events remain — scheduling and canceling between stops. The
// run must execute in the reference (t, seq) order, and after every stop
// each calendar resident must lie within the horizon of the clock.
func TestRunUntilStopsMatchReferenceOrder(t *testing.T) {
	type armed struct {
		tm  *Timer
		rec eventRec
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(1)
		var got []eventRec
		keep := map[eventRec]bool{} // every scheduled event; false once canceled
		var timers []armed
		count := 0

		var plant func(n int, inRun bool)
		plant = func(n int, inRun bool) {
			for i := 0; i < n && count < 400; i++ {
				count++
				var d Time
				switch rng.Intn(7) {
				case 0:
					d = 0
				case 1, 2:
					d = Time(rng.Intn(300) + 1) // a few calendar buckets
				case 3:
					d = Time(rng.Int63n(int64(wheelCutoff))) // anywhere in the calendar's direct range
				case 4, 5:
					d = wheelCutoff + Time(rng.Int63n(int64(20*wheelGran))) // near wheel levels
				default:
					d = wheelCutoff + Time(rng.Int63n(int64(wheelGran)*wheelSlotsPer*wheelSlotsPer)) // idle gaps
				}
				rec := eventRec{e.now + d, e.seq + 1}
				keep[rec] = true
				fire := func() {
					got = append(got, eventRec{e.now, rec.seq})
					if rng.Intn(3) == 0 {
						plant(rng.Intn(3), true)
					}
				}
				if rng.Intn(2) == 0 {
					e.CallAfter(d, fire)
				} else {
					timers = append(timers, armed{e.After(d, fire), rec})
				}
			}
		}

		plant(20, false)
		for stop := 0; stop < 60 && e.Pending() > 0; stop++ {
			var step Time
			switch rng.Intn(4) {
			case 0:
				step = Time(rng.Intn(200))
			case 1:
				step = Time(rng.Int63n(int64(calSpan)))
			default:
				step = Time(rng.Int63n(int64(wheelGran) * wheelSlotsPer * 4))
			}
			limit := e.Now() + step
			if err := e.RunUntil(limit); err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return false
			}
			if e.Pending() > 0 && e.Now() != limit {
				t.Errorf("seed %d: RunUntil(%v) left the clock at %v", seed, limit, e.Now())
				return false
			}
			calResidents(t, e)
			// Between stops: cancel some armed timers (fired ones are
			// no-ops) and schedule more work from outside the run.
			for i := 0; i < len(timers); {
				if rng.Intn(4) != 0 {
					i++
					continue
				}
				a := timers[i]
				if a.tm.loc != timerInert {
					keep[a.rec] = false
				}
				a.tm.Cancel()
				timers[i] = timers[len(timers)-1]
				timers = timers[:len(timers)-1]
			}
			calResidents(t, e)
			plant(rng.Intn(4), false)
		}
		if err := e.Run(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		var expect []eventRec
		for rec, ok := range keep {
			if ok {
				expect = append(expect, rec)
			}
		}
		sort.Slice(expect, func(i, j int) bool {
			if expect[i].t != expect[j].t {
				return expect[i].t < expect[j].t
			}
			return expect[i].seq < expect[j].seq
		})
		if fmt.Sprint(got) != fmt.Sprint(expect) {
			t.Errorf("seed %d: order diverged from reference\n got: %v\nwant: %v", seed, got, expect)
			return false
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCalendarInsertBeforeMinBucket covers the calendar's insert paths
// around its cached minimum: an ordered insert into the sorted minimum
// bucket, an insert into an earlier (empty) bucket that takes over as
// minimum, an out-of-order append to the former minimum bucket, which
// must be re-sorted when the scan comes back to it, and an ordered
// insert too deep to walk, which demotes the minimum bucket.
func TestCalendarInsertBeforeMinBucket(t *testing.T) {
	e := NewEngine(1)
	var got []string
	at := func(when Time, name string) {
		e.CallAt(when, func() { got = append(got, name) })
	}
	base := 10 * Microsecond // a bucket boundary: 10000 = 78*128 + 16
	at(base+40, "a")
	at(base+80, "b")
	// RunUntil peeks the calendar, making base's bucket the sorted
	// minimum, and stops before it.
	if err := e.RunUntil(Microsecond); err != nil {
		t.Fatal(err)
	}
	if e.cal.min == 0 || e.cal.minBn != int64(base+40)>>calShift {
		t.Fatalf("minimum bucket not cached after RunUntil (min=%d)", e.cal.min)
	}
	at(base+60, "c")       // ordered insert between a and b
	at(2*Microsecond, "x") // earlier bucket: becomes the minimum
	at(base+50, "d")       // append to the former minimum, out of order
	at(base+20, "e")       // and again, ahead of its head
	if n := calResidents(t, e); n != 6 {
		t.Fatalf("calendar holds %d events, want 6", n)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[x e a d c b]" {
		t.Fatalf("got %v, want [x e a d c b]", got)
	}

	// An ordered insert that would walk past more than calWalkMax
	// entries of the minimum bucket is appended instead, and the bucket
	// goes back to being sorted when the scan reaches it.
	e = NewEngine(1)
	got = got[:0]
	for i := 0; i < calWalkMax+2; i++ {
		at(base+100+Time(i), fmt.Sprint("h", i))
	}
	if err := e.RunUntil(Microsecond); err != nil {
		t.Fatal(err)
	}
	at(base+50, "g")
	if e.cal.min != 0 {
		t.Fatal("long ordered insert did not demote the minimum bucket")
	}
	calResidents(t, e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[g h0 h1 h2 h3 h4 h5 h6 h7 h8 h9]" {
		t.Fatalf("got %v after demotion", got)
	}
}

// TestRunUntilIdleGapKeepsHorizon: stopping inside a long idle gap must
// leave far events in the wheel and the clock at the limit, not drain
// them into the calendar beyond its horizon.
func TestRunUntilIdleGapKeepsHorizon(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.CallAt(10*Millisecond, func() { got = append(got, e.Now()) })
	if err := e.RunUntil(5 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5*Millisecond || e.WheelPending() != 1 || e.Pending() != 1 {
		t.Fatalf("now=%v wheel=%d pending=%d, want 5ms/1/1", e.Now(), e.WheelPending(), e.Pending())
	}
	calResidents(t, e)
	e.CallAfter(50*Microsecond, func() { got = append(got, e.Now()) })
	if err := e.RunUntil(10*Millisecond - 1); err != nil {
		t.Fatal(err)
	}
	calResidents(t, e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint([]Time{5*Millisecond + 50*Microsecond, 10 * Millisecond}) {
		t.Fatalf("got %v", got)
	}
}

// TestWheelDrainSortsBySeqWithinInstant: wheel events drained into a
// calendar bucket that already holds later-scheduled events for the same
// instant land behind them, out of seq order, and a canceled wheel timer
// reorders its wheel bucket. An earlier event in the same wheel tick makes
// the drain happen while another calendar bucket is the minimum, so the
// drained events are appended, not inserted in order. The bucket is large
// enough for sortBucket's counting pass, which orders by t alone; the
// result must still be exact (t, seq) order.
func TestWheelDrainSortsBySeqWithinInstant(t *testing.T) {
	e := NewEngine(1)
	T := 3*wheelCutoff + wheelGran/2
	var got []uint64
	var tms []*Timer
	for i := 0; i < 2*calCountingMin; i++ {
		seq := e.seq + 1
		tms = append(tms, e.At(T, func() { got = append(got, seq) }))
	}
	if e.WheelPending() != len(tms) {
		t.Fatalf("wheel holds %d of %d events", e.WheelPending(), len(tms))
	}
	tms[0].Cancel() // swap-removes: the bucket's last event moves to the front
	tms[5].Cancel()
	e.CallAt(T-wheelCutoff+1, func() {
		for i := 0; i < calCountingMin; i++ {
			seq := e.seq + 1
			e.CallAt(T, func() { got = append(got, seq) })
		}
		e.CallAt(T-1000, func() {}) // same wheel tick as T, earlier bucket
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*calCountingMin-2 {
		t.Fatalf("ran %d events, want %d", len(got), 3*calCountingMin-2)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("same-instant events ran out of seq order: %v", got)
	}
}
