package sim

import (
	"fmt"
	"hash/fnv"
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
// for the two-container design (calendar / far heap): a random workload
// where callbacks recursively schedule more work at the current instant,
// in the near future (both in the calendar), and far out in the far heap
// (from the cutoff to ~17 s ahead, and a second band beyond it), with a
// random subset of timers canceled from whichever container holds them,
// must execute in exactly the (t, seq) total order a single reference
// priority queue would produce.
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
					d = 0 // same-instant: the calendar's current bucket
				case 2, 3:
					d = Time(rng.Intn(40) + 1) // near future: the calendar
				case 4:
					// Far heap: from the cutoff out to 64³ granules
					// (~17 s), so heap residents are many granules apart.
					d = farCutoff + Time(rng.Int63n(int64(farGran)*64*64*64))
				default:
					// Far heap, a dense band just beyond 64³ granules.
					d = Time(int64(farGran)*64*64*64 + rng.Int63n(int64(farGran)*64*64))
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
					// Cancel while the calendar holds live events at this
					// instant and later, so unlinking from the current
					// bucket and from later ones are both exercised.
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

// TestSameInstantFIFO checks that same-instant events — mixed
// zero-delay callbacks, yields and unblocks — run in scheduling order.
func TestSameInstantFIFO(t *testing.T) {
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

// TestEarlierSeqFirstAtSameInstant: an event scheduled from afar for time
// T (lower seq) must run before a same-instant event created at T with a
// higher seq, although the latter is pushed into the calendar later.
func TestEarlierSeqFirstAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []string
	// Scheduled first: sits in the calendar until t=10.
	e.CallAt(10, func() { got = append(got, "cal-early") })
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(10)
		// The driver's wake event was scheduled by Sleep at t=0 with seq 3
		// (spawn=2), so calendar order at t=10 is (10,1) cal-early, then
		// (10,3) driver, then the (10,4) event scheduled here.
		e.CallAfter(0, func() { got = append(got, "now-late") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[cal-early now-late]" {
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

// TestCancelSameInstant: canceling a timer armed for the current instant
// (in the calendar's current bucket) must also suppress and release it.
func TestCancelSameInstant(t *testing.T) {
	e := NewEngine(1)
	var ran []string
	e.CallAt(5, func() {
		tm := e.After(0, func() { ran = append(ran, "canceled") })
		e.CallAfter(0, func() { ran = append(ran, "kept") })
		tm.Cancel()
		if e.Pending() != 1 {
			t.Errorf("pending=%d after same-instant cancel, want 1", e.Pending())
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
		p.Sleep(5) // future event
		p.Yield()  // same-instant event
	})
	e.CallAfter(3, func() {}) // future + callback
	e.CallAfter(0, func() {}) // same-instant + callback
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CallbacksRun != 2 {
		t.Fatalf("CallbacksRun=%d, want 2", st.CallbacksRun)
	}
	// spawn(now) + yield + CallAfter(0) were scheduled for the current
	// instant; sleep and CallAfter(3) were not.
	if st.ReadyFast != 3 || st.Scheduled != 5 {
		t.Fatalf("ReadyFast=%d Scheduled=%d, want 3/5", st.ReadyFast, st.Scheduled)
	}
	// spawn wake + sleep wake + yield wake = 3 resumptions.
	if st.ProcSwitches != 3 {
		t.Fatalf("ProcSwitches=%d, want 3", st.ProcSwitches)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending=%d at quiescence", e.Pending())
	}
}

// TestSchedulePathsAllocFree pins the engine's three schedule paths at
// zero steady-state allocations: future and same-instant calendar
// inserts, and far-heap AtReuse/Cancel pairs. Containers are
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
		t.Errorf("same-instant CallAfter allocates %.2f/op, want 0", avg)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	// Far-future arm/disarm — the fleet timeout pattern: the timer waits
	// in the far heap, is canceled from it, and AtReuse recycles the Timer.
	var tm *Timer
	if avg := testing.AllocsPerRun(1000, func() {
		tm = e.AtReuse(e.Now()+farCutoff+10*farGran, fn, tm)
		tm.Cancel()
	}); avg != 0 {
		t.Errorf("far AtReuse+Cancel allocates %.2f/op, want 0", avg)
	}
	if e.FarPending() != 0 {
		t.Fatalf("far heap holds %d events after cancel loop", e.FarPending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunUntilWithSameInstantBacklog: stopping at a limit mid-instant and
// resuming later must preserve order between same-instant and later
// events.
func TestRunUntilWithSameInstantBacklog(t *testing.T) {
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
	// a and b run at t=10 ≤ limit; c, at t=15, is beyond it.
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
// in fact under farCutoff+farGran ahead), or if the cached minimum
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
			case ev.t < e.now || ev.t-e.now >= calSpan || ev.t-e.now >= farCutoff+farGran:
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

// runRandomStops drives a seeded random workload through RunUntil stops
// at random instants — including long idle gaps in which only far events
// remain — scheduling and canceling between stops. Events are near and
// far CallAt and At callbacks, some planted from inside callbacks, and
// timers canceled between stops are re-armed through AtReuse. After
// every stop it checks the calendar's invariants and calls stop with the
// number of events executed so far. It returns the order the events ran
// in and the reference (t, seq) order of every event not canceled.
func runRandomStops(t *testing.T, seed int64, stop func(e *Engine, executed int)) (got, expect []eventRec) {
	type armed struct {
		tm  *Timer
		rec eventRec
	}
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine(1)
	keep := map[eventRec]bool{} // every scheduled event; false once canceled
	var timers []armed
	var spare []*Timer // canceled timers, for AtReuse
	count := 0

	var plant func(n int)
	plant = func(n int) {
		for i := 0; i < n && count < 400; i++ {
			count++
			var d Time
			switch rng.Intn(7) {
			case 0:
				d = 0
			case 1, 2:
				d = Time(rng.Intn(300) + 1) // a few calendar buckets
			case 3:
				d = Time(rng.Int63n(int64(farCutoff))) // anywhere in the calendar's direct range
			case 4, 5:
				d = farCutoff + Time(rng.Int63n(int64(20*farGran))) // far, a few granules out
			default:
				d = farCutoff + Time(rng.Int63n(int64(farGran)*64*64)) // idle gaps
			}
			rec := eventRec{e.now + d, e.seq + 1}
			keep[rec] = true
			fire := func() {
				got = append(got, eventRec{e.now, rec.seq})
				if rng.Intn(3) == 0 {
					plant(rng.Intn(3))
				}
			}
			if rng.Intn(2) == 0 {
				e.CallAt(rec.t, fire)
			} else {
				var tm *Timer
				if k := len(spare); k > 0 {
					tm, spare = spare[k-1], spare[:k-1]
				}
				timers = append(timers, armed{e.AtReuse(rec.t, fire, tm), rec})
			}
		}
	}

	plant(20)
	for i := 0; i < 60 && e.Pending() > 0; i++ {
		var step Time
		switch rng.Intn(4) {
		case 0:
			step = Time(rng.Intn(200))
		case 1:
			step = Time(rng.Int63n(int64(calSpan)))
		default:
			step = Time(rng.Int63n(int64(farGran) * 64 * 4))
		}
		limit := e.Now() + step
		if err := e.RunUntil(limit); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if e.Pending() > 0 && e.Now() != limit {
			t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, limit, e.Now())
		}
		calResidents(t, e)
		stop(e, len(got))
		// Between stops: cancel some armed timers (fired ones are
		// no-ops) and schedule more work from outside the run.
		for j := 0; j < len(timers); {
			if rng.Intn(4) != 0 {
				j++
				continue
			}
			a := timers[j]
			if a.tm.loc != timerInert {
				keep[a.rec] = false
			}
			a.tm.Cancel()
			spare = append(spare, a.tm)
			timers[j] = timers[len(timers)-1]
			timers = timers[:len(timers)-1]
		}
		calResidents(t, e)
		plant(rng.Intn(4))
	}
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
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
	return got, expect
}

// TestRunUntilStopsMatchReferenceOrder: the runRandomStops workload must
// execute in the reference (t, seq) order, each calendar resident must
// lie within the horizon of the clock after every stop, and the engine
// must pass Audit at every stop, counting exactly the events that ran.
func TestRunUntilStopsMatchReferenceOrder(t *testing.T) {
	f := func(seed int64) bool {
		got, expect := runRandomStops(t, seed, func(e *Engine, executed int) {
			if err := e.Audit(); err != nil {
				t.Errorf("seed %d at %v: %v", seed, e.Now(), err)
			}
			if e.executed != uint64(executed) {
				t.Errorf("seed %d at %v: engine counts %d events executed, %d ran", seed, e.Now(), e.executed, executed)
			}
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

// farStop is the engine's far-heap bookkeeping at one RunUntil stop.
type farStop struct {
	now                              Time
	scheduled, farSched, farCanceled uint64
	farPeak, farPending              int
}

// farStops runs runRandomStops for seed and returns the far-heap
// bookkeeping at every stop, and an FNV-1a digest of all of it.
func farStops(t *testing.T, seed int64) ([]farStop, uint64) {
	var rows []farStop
	runRandomStops(t, seed, func(e *Engine, _ int) {
		st := e.Stats()
		rows = append(rows, farStop{e.Now(), st.Scheduled, st.FarScheduled, st.FarCanceled, st.FarPeak, e.FarPending()})
	})
	h := fnv.New64a()
	for _, r := range rows {
		fmt.Fprintf(h, "%d %d %d %d %d %d\n", int64(r.now), r.scheduled, r.farSched, r.farCanceled, r.farPeak, r.farPending)
	}
	return rows, h.Sum64()
}

// TestFarCountersMatchParent pins the far heap's observable contract to
// the hierarchical timer wheel it replaced. The sim.wheel_* gauges and the
// checkpoint stats line hash these counters into golden digests, so which
// events count as far, when they drain and which cancels find them still
// far must not move. The constants were recorded on the wheel for the
// runRandomStops workload: every stop of seed 1, and a digest of every
// stop for seeds 1–32.
func TestFarCountersMatchParent(t *testing.T) {
	seed1 := []farStop{
		{4967734, 23, 14, 0, 14, 8},
		{17146817, 26, 16, 2, 14, 7},
		{17163501, 28, 18, 3, 14, 8},
		{22595031, 28, 18, 5, 14, 5},
		{34871697, 30, 18, 6, 14, 4},
		{41372537, 32, 19, 8, 14, 2},
		{41372585, 35, 21, 8, 14, 4},
		{41491003, 37, 22, 8, 14, 5},
		{45925755, 38, 23, 8, 14, 3},
		{55934464, 39, 24, 8, 14, 3},
		{69316418, 40, 24, 8, 14, 3},
		{80384077, 40, 24, 8, 14, 3},
		{80545787, 40, 24, 8, 14, 3},
		{80785854, 44, 25, 8, 14, 3},
		{94013805, 46, 25, 9, 14, 2},
		{94092098, 47, 26, 9, 14, 3},
		{94092151, 47, 26, 10, 14, 2},
		{104655018, 56, 28, 10, 14, 2},
		{115110229, 64, 31, 10, 14, 1},
		{115110388, 66, 31, 10, 14, 1},
		{115266552, 66, 31, 10, 14, 1},
		{115266557, 69, 32, 10, 14, 2},
		{120446270, 77, 37, 10, 14, 3},
		{120446321, 77, 37, 10, 14, 3},
		{120607051, 79, 37, 10, 14, 3},
		{129738840, 84, 39, 10, 14, 3},
		{142846271, 84, 39, 10, 14, 3},
		{155623636, 86, 40, 10, 14, 3},
		{156952785, 86, 40, 11, 14, 2},
		{169917188, 88, 40, 11, 14, 2},
		{185295286, 88, 40, 11, 14, 2},
		{193093043, 89, 40, 11, 14, 2},
		{201379850, 91, 41, 11, 14, 3},
		{201379864, 93, 42, 11, 14, 4},
		{208547772, 97, 45, 11, 14, 5},
		{208547943, 98, 46, 11, 14, 6},
		{209046731, 99, 47, 11, 14, 7},
		{223073020, 100, 48, 11, 14, 5},
		{232821804, 102, 48, 11, 14, 5},
		{245943063, 107, 49, 11, 14, 3},
		{257433832, 108, 49, 11, 14, 3},
		{271517942, 109, 50, 11, 14, 3},
		{271622862, 112, 53, 11, 14, 6},
		{271635077, 114, 54, 11, 14, 7},
		{271804558, 117, 55, 11, 14, 8},
		{271804637, 118, 55, 11, 14, 8},
		{271804799, 121, 56, 11, 14, 9},
		{278154729, 121, 56, 11, 14, 3},
		{278154735, 122, 56, 11, 14, 3},
		{278154847, 124, 56, 11, 14, 3},
		{278409123, 133, 58, 11, 14, 5},
		{283142337, 136, 59, 11, 14, 4},
		{283184508, 140, 59, 11, 14, 4},
		{292132300, 142, 60, 11, 14, 4},
		{292132328, 143, 61, 11, 14, 5},
		{303800393, 150, 66, 11, 14, 7},
		{304011197, 155, 67, 11, 14, 8},
		{304088690, 155, 67, 12, 14, 7},
		{304190895, 155, 67, 13, 14, 6},
		{304191022, 158, 70, 13, 14, 9},
	}
	digests := [32]uint64{
		0xc08d6ee8ba56a535,
		0xaa33ea7e4bb5d8a4,
		0xc8ca1beb2aa6ff73,
		0xa576d0cb3d7b8f5f,
		0x36e991ab7b5d15be,
		0x5f3f2d3a9aa42ee1,
		0x3887b198fbfa6ae4,
		0x2ea483a91aabc573,
		0x4e1a115d6e88aaa1,
		0x36a5ad3cc037905c,
		0x9a090734a0e73627,
		0xe8a39041a995a6c5,
		0x842dd083f62faa92,
		0xc4394917f0b61380,
		0x5a000f35ffa3dd8f,
		0xfda8ec628408b3d3,
		0xdacc495f6b6623b1,
		0xa22faae3e49c5e0f,
		0x5b151d4d6dbbb65f,
		0x717e883bdf6d6a5a,
		0xf71546eeb5cddddb,
		0x9eadaf404196409,
		0xe62c0ecadeef14ec,
		0x69dfd680a5c2a49b,
		0xfaed685735986fba,
		0x32058dc19071b25d,
		0xed7966265386a9b6,
		0x1c5a4d77292af498,
		0x291dcf1de5edec5c,
		0x9b19dae7cfeb583d,
		0x2df07a6befc04e58,
		0x426824ae9d012fe5,
	}
	rows, _ := farStops(t, 1)
	if len(rows) != len(seed1) {
		t.Fatalf("seed 1: %d stops, want %d", len(rows), len(seed1))
	}
	for i, r := range rows {
		if r != seed1[i] {
			t.Fatalf("seed 1, stop %d: got %+v, want %+v", i, r, seed1[i])
		}
	}
	for i, want := range digests {
		seed := int64(i + 1)
		if rows, got := farStops(t, seed); got != want {
			t.Errorf("seed %d: far bookkeeping digest %#x, want %#x; last stop %+v", seed, got, want, rows[len(rows)-1])
		}
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
// leave far events in the far heap and the clock at the limit, not drain
// them into the calendar beyond its horizon.
func TestRunUntilIdleGapKeepsHorizon(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.CallAt(10*Millisecond, func() { got = append(got, e.Now()) })
	if err := e.RunUntil(5 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5*Millisecond || e.FarPending() != 1 || e.Pending() != 1 {
		t.Fatalf("now=%v far=%d pending=%d, want 5ms/1/1", e.Now(), e.FarPending(), e.Pending())
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

// TestFarDrainSortsBySeqWithinInstant: far events drained into a
// calendar bucket that already holds later-scheduled events for the same
// instant land behind them, out of seq order, and a canceled far timer
// reorders the heap. An earlier event in the same far granule makes the
// drain happen while another calendar bucket is the minimum, so the
// drained events are appended, not inserted in order. The bucket is large
// enough for sortBucket's counting pass, which orders by t alone; the
// result must still be exact (t, seq) order.
func TestFarDrainSortsBySeqWithinInstant(t *testing.T) {
	e := NewEngine(1)
	T := 3*farCutoff + farGran/2
	var got []uint64
	var tms []*Timer
	for i := 0; i < 2*calCountingMin; i++ {
		seq := e.seq + 1
		tms = append(tms, e.At(T, func() { got = append(got, seq) }))
	}
	if e.FarPending() != len(tms) {
		t.Fatalf("far heap holds %d of %d events", e.FarPending(), len(tms))
	}
	tms[0].Cancel() // the heap's last event moves to the root and sifts down
	tms[5].Cancel()
	e.CallAt(T-farCutoff+1, func() {
		for i := 0; i < calCountingMin; i++ {
			seq := e.seq + 1
			e.CallAt(T, func() { got = append(got, seq) })
		}
		e.CallAt(T-1000, func() {}) // same far granule as T, earlier bucket
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
