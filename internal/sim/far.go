package sim

// The far-event heap: the far half of the engine's two-level scheduler.
// Events at least farCutoff in the future (fleet session timeouts,
// nanosleep and poll deadlines, retransmit watchdogs) wait in a binary
// min-heap in (t, seq) order, outside the calendar's horizon. They move
// into the calendar a whole farGran granule at a time, strictly before
// the clock can reach their granule, so every event still executes in
// global (t, seq) order. See DESIGN.md §13.
const (
	farGran = 64 * Microsecond // drain granule

	// farCutoff is the routing threshold in place(): an event at least
	// this far in the future waits in the heap. Two granules, so a far
	// event always lies in a granule strictly after the drain frontier.
	farCutoff = 2 * farGran
)

// farHeap holds the far-future events. cur is the drain frontier as a
// granule index (t / farGran): every event in granule <= cur has been
// drained into the calendar, and every resident lies in a granule > cur.
type farHeap struct {
	cur int64
	evs []event // binary min-heap in (t, seq) order
}

// farGranule is the granule index of instant t.
func farGranule(t Time) int64 { return int64(t) / int64(farGran) }

// farInsert parks ev in the heap. An event whose granule is not beyond
// the drain frontier (possible when the frontier ran ahead of the clock
// during a catch-up) goes to the calendar instead, which is always
// correct: such an event is less than farCutoff+farGran ahead.
func (e *Engine) farInsert(ev event) {
	f := &e.far
	if farGranule(ev.t) <= f.cur {
		e.calPush(ev)
		return
	}
	e.stats.FarScheduled++
	if ev.tmr != nil {
		ev.tmr.loc = timerInFar
	}
	f.evs = append(f.evs, ev)
	if n := len(f.evs); n > e.stats.FarPeak {
		e.stats.FarPeak = n
	}
	f.up(len(f.evs) - 1)
}

// farCatchUp drains into the calendar every far event in a granule at
// or before target's. Called before the engine commits to executing an
// event at target, so no far event can be skipped over. The frontier
// moves to target's granule, or, if the heap empties, to the granule of
// the last event drained. Drained events lie under farGran beyond
// target's granule.
func (e *Engine) farCatchUp(target Time) {
	f := &e.far
	g := farGranule(target)
	if g <= f.cur {
		return // every resident lies beyond the frontier
	}
	for len(f.evs) > 0 {
		eg := farGranule(f.evs[0].t)
		if eg > g {
			f.cur = g
			return
		}
		f.cur = eg
		e.calPush(f.remove(0))
	}
}

// farAdvance runs when the calendar is empty and only far events remain.
// If the first far granule is not past limit's, the clock moves to that
// granule's start and the granule is drained, so the drained events are
// within one granule of the clock and the calendar's horizon holds
// however long the idle gap; no simulation code runs before the next
// event sets the clock again, so the move is unobservable. Otherwise the
// frontier moves to limit's granule and nothing drains.
func (e *Engine) farAdvance(limit Time) {
	f := &e.far
	g, lg := farGranule(f.evs[0].t), farGranule(limit)
	if g > lg {
		if lg > f.cur {
			f.cur = lg
		}
		return
	}
	s := Time(g) * farGran
	if s > e.now {
		e.now = s
	}
	e.farCatchUp(s)
}

// remove takes the event at heap index i out of the heap and returns it.
func (f *farHeap) remove(i int) event {
	ev := f.evs[i]
	last := len(f.evs) - 1
	moved := f.evs[last]
	f.evs[last] = event{}
	f.evs = f.evs[:last]
	if i < last {
		f.evs[i] = moved
		if !f.down(i) {
			f.up(i)
		}
	}
	return ev
}

// set stores ev at heap index i and keeps its Timer's position current.
func (f *farHeap) set(i int, ev event) {
	f.evs[i] = ev
	if ev.tmr != nil {
		ev.tmr.pos = i
	}
}

// up restores heap order by moving the event at index i toward the root.
func (f *farHeap) up(i int) {
	h := f.evs
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&ev, &h[p]) {
			break
		}
		f.set(i, h[p])
		i = p
	}
	f.set(i, ev)
}

// down restores heap order by moving the event at index i toward the
// leaves, and reports whether it moved.
func (f *farHeap) down(i int) bool {
	h := f.evs
	ev := h[i]
	start := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && eventLess(&h[r], &h[c]) {
			c = r
		}
		if !eventLess(&h[c], &ev) {
			break
		}
		f.set(i, h[c])
		i = c
	}
	f.set(i, ev)
	return i > start
}
