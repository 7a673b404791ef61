package sim

// The hierarchical timer wheel: the far half of the engine's two-level
// scheduler. Events whose instant is at least wheelCutoff in the future
// are parked in a coarse bucket keyed by their instant, making schedule
// and Cancel O(1) regardless of how many far-future timers (fleet session
// timeouts, retransmit watchdogs, poll deadlines) are pending, and
// keeping them outside the calendar's horizon. Buckets are drained into
// the near-term calendar strictly before the clock can reach their
// window, so every event still executes in global (t, seq) order. See
// DESIGN.md §13.
//
// Geometry: wheelLevels levels of wheelSlotsPer buckets each. Level 0
// buckets are wheelGran wide; each higher level is wheelSlotsPer times
// coarser. With 64ns·1024 = 64µs granularity and three 64-slot levels
// the spans are ~4.2ms / ~268ms / ~17.2s; events beyond the top span go
// to a small overflow list that is re-examined at level-2 boundaries.
const (
	wheelGran      = 64 * Microsecond // level-0 bucket width
	wheelLevelBits = 6
	wheelSlotsPer  = 1 << wheelLevelBits
	wheelSlotMask  = wheelSlotsPer - 1
	wheelLevels    = 3

	// wheelCutoff is the routing threshold in place(): an event at least
	// this far in the future takes the wheel. Two granules, so a wheel
	// event always lands in a bucket strictly after the drain frontier.
	wheelCutoff = 2 * wheelGran

	wheelL1Mask = wheelSlotsPer*wheelSlotsPer - 1
	wheelL2Mask = wheelSlotsPer*wheelSlotsPer*wheelSlotsPer - 1
)

// timerWheel holds the far-future events. cur is the drain frontier as a
// level-0 tick index (t / wheelGran): every event with tick <= cur has
// been drained into the calendar; every resident event has tick > cur.
type timerWheel struct {
	cur    int64
	slots  [wheelLevels][wheelSlotsPer][]event
	lcount [wheelLevels]int // resident events per level
	over   []event          // events beyond the level-2 span
	count  int              // total resident events (including overflow)
}

// wheelTick is the level-0 tick index of instant t.
func wheelTick(t Time) int64 { return int64(t) / int64(wheelGran) }

// wheelInsert parks ev in the bucket covering its instant. Events whose
// tick is not strictly beyond the drain frontier (possible when the
// frontier ran ahead of the clock during a catch-up) fall back to the
// calendar, which is always correct: such an event is less than
// wheelCutoff+wheelGran ahead.
func (e *Engine) wheelInsert(ev event) {
	w := &e.wh
	tv := wheelTick(ev.t)
	if tv <= w.cur {
		e.calPush(ev)
		return
	}
	e.stats.WheelScheduled++
	w.count++
	if w.count > e.stats.WheelPeak {
		e.stats.WheelPeak = w.count
	}
	e.wheelPlace(ev, tv)
}

// wheelPlace files ev (with precomputed tick tv > cur) into its level and
// slot. Shared by external inserts and cascade re-insertion; it must not
// touch seq, so re-filed events keep their place in the total order.
func (e *Engine) wheelPlace(ev event, tv int64) {
	w := &e.wh
	delta := tv - w.cur
	var lvl int
	switch {
	case delta < wheelSlotsPer:
		lvl = 0
	case delta < wheelSlotsPer*wheelSlotsPer:
		lvl = 1
	case delta < wheelSlotsPer*wheelSlotsPer*wheelSlotsPer:
		lvl = 2
	default:
		if ev.tmr != nil {
			ev.tmr.loc = timerInOverflow
			ev.tmr.pos = len(w.over)
		}
		w.over = append(w.over, ev)
		return
	}
	slot := int((tv >> (lvl * wheelLevelBits)) & wheelSlotMask)
	b := &w.slots[lvl][slot]
	if ev.tmr != nil {
		ev.tmr.loc = lvl*wheelSlotsPer + slot
		ev.tmr.pos = len(*b)
	}
	*b = append(*b, ev)
	w.lcount[lvl]++
}

// wheelCancel removes the event tracked by t from its bucket in O(1) by
// swap-remove. Called from Timer.Cancel with t.loc identifying the
// bucket (>= 0) or the overflow list.
func (e *Engine) wheelCancel(t *Timer) {
	w := &e.wh
	var b *[]event
	if t.loc == timerInOverflow {
		b = &w.over
	} else {
		lvl := t.loc >> wheelLevelBits
		b = &w.slots[lvl][t.loc&wheelSlotMask]
		w.lcount[lvl]--
	}
	last := len(*b) - 1
	if t.pos != last {
		moved := (*b)[last]
		(*b)[t.pos] = moved
		if moved.tmr != nil {
			moved.tmr.pos = t.pos
		}
	}
	(*b)[last] = event{}
	*b = (*b)[:last]
	w.count--
	e.stats.WheelCanceled++
}

// wheelCatchUp drains every wheel event with instant <= target into the
// calendar. Called before the engine commits to executing an event at
// target, so no wheel event can be skipped over: after it returns, all
// residents have t > target (or the wheel is empty). Drained events are
// under wheelGran beyond target, which is under wheelCutoff ahead.
func (e *Engine) wheelCatchUp(target Time) {
	tt := wheelTick(target)
	w := &e.wh
	for w.count > 0 && w.cur < tt && e.wheelNext(tt) {
		e.wheelDrainCur()
	}
}

// wheelAdvanceUntilCal advances the frontier, never past limit's tick,
// until a drain lands events in the calendar (or the wheel empties). Used
// when the calendar is empty and only wheel events remain. Before each
// drain the clock moves to the start of the tick being drained, so the
// drained events are within one tick of it and the calendar's horizon
// holds however long the idle gap; no simulation code runs before the
// next event sets the clock again (or RunUntil leaves it at limit, which
// is not earlier), so the move is unobservable.
func (e *Engine) wheelAdvanceUntilCal(limit Time) {
	tl := wheelTick(limit)
	w := &e.wh
	for w.count > 0 && e.cal.count == 0 && w.cur < tl && e.wheelNext(tl) {
		if s := Time(w.cur) * wheelGran; s > e.now {
			e.now = s
		}
		e.wheelDrainCur()
	}
}

// wheelNext advances the frontier by one tick — first skipping runs of
// ticks that provably hold nothing — and reports whether it did; it
// never moves the frontier past bound.
func (e *Engine) wheelNext(bound int64) bool {
	w := &e.wh
	// Empty-run skip: with no level-0 residents, nothing can drain before
	// the next level-1 cascade boundary; with level 1 also empty, nothing
	// before the next level-2 boundary; with all levels empty (overflow
	// only), jump to the level-2 boundary at or below the earliest
	// overflow event. Jumps never cross the boundary they reason about.
	if w.lcount[0] == 0 {
		jump := w.cur | wheelSlotMask // last tick before the next L1 cascade
		if w.lcount[1] == 0 {
			jump = w.cur | wheelL1Mask // last tick before the next L2 cascade
			if w.lcount[2] == 0 && len(w.over) > 0 {
				min := wheelTick(w.over[0].t)
				for _, ev := range w.over[1:] {
					if tv := wheelTick(ev.t); tv < min {
						min = tv
					}
				}
				if j := (min &^ int64(wheelL1Mask)) - 1; j > jump {
					jump = j
				}
			}
		}
		if jump > bound {
			jump = bound
		}
		if jump > w.cur {
			w.cur = jump
		}
		if w.cur >= bound {
			return false
		}
	}
	w.cur++
	return true
}

// wheelDrainCur cascades the higher-level buckets whose boundary the
// frontier tick cur sits on and drains cur's level-0 bucket.
func (e *Engine) wheelDrainCur() {
	c := e.wh.cur
	if c&wheelSlotMask == 0 {
		if c&wheelL1Mask == 0 {
			e.wheelCascade(2, int((c>>(2*wheelLevelBits))&wheelSlotMask))
			e.wheelRefileOverflow()
		}
		e.wheelCascade(1, int((c>>wheelLevelBits)&wheelSlotMask))
	}
	e.wheelDrainL0(int(c & wheelSlotMask))
}

// wheelCascade re-files every event of the given higher-level bucket now
// that the frontier has entered its window; each lands in a finer bucket
// (or, for a tick equal to the frontier, is picked up by the level-0
// drain that follows in the same step).
func (e *Engine) wheelCascade(lvl, slot int) {
	w := &e.wh
	b := w.slots[lvl][slot]
	if len(b) == 0 {
		return
	}
	w.slots[lvl][slot] = b[:0]
	w.lcount[lvl] -= len(b)
	for i, ev := range b {
		tv := wheelTick(ev.t)
		if tv <= w.cur {
			// tick == cur: due exactly at the boundary being crossed.
			w.count--
			e.calPush(ev)
		} else {
			e.wheelPlace(ev, tv)
		}
		b[i] = event{}
	}
}

// wheelRefileOverflow moves overflow events that now fit the level-2 span
// into the wheel proper. Runs only at level-2 cascade boundaries.
func (e *Engine) wheelRefileOverflow() {
	w := &e.wh
	if len(w.over) == 0 {
		return
	}
	kept := w.over[:0]
	for _, ev := range w.over {
		tv := wheelTick(ev.t)
		if tv-w.cur < wheelSlotsPer*wheelSlotsPer*wheelSlotsPer {
			e.wheelPlace(ev, tv)
		} else {
			if ev.tmr != nil {
				ev.tmr.pos = len(kept)
			}
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(w.over); i++ {
		w.over[i] = event{}
	}
	w.over = kept
}

// wheelDrainL0 pushes every event of level-0 bucket slot into the
// calendar, which restores exact (t, seq) order among near-term events.
func (e *Engine) wheelDrainL0(slot int) {
	w := &e.wh
	b := w.slots[0][slot]
	if len(b) == 0 {
		return
	}
	w.slots[0][slot] = b[:0]
	w.lcount[0] -= len(b)
	w.count -= len(b)
	for i, ev := range b {
		e.calPush(ev)
		b[i] = event{}
	}
}

// wheelAppendPending appends every wheel-resident event to evs (for
// checkpoint fingerprints); order is restored by the caller's sort.
func (e *Engine) wheelAppendPending(evs []event) []event {
	w := &e.wh
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for slot := range w.slots[lvl] {
			evs = append(evs, w.slots[lvl][slot]...)
		}
	}
	return append(evs, w.over...)
}

// wheelReset drops every wheel-resident event (engine shutdown).
func (e *Engine) wheelReset() {
	w := &e.wh
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for slot := range w.slots[lvl] {
			w.slots[lvl][slot] = nil
		}
		w.lcount[lvl] = 0
	}
	w.over = nil
	w.count = 0
}
