package sim

// Cond is a condition variable in virtual time. As with sync.Cond, waiters
// must re-check their predicate in a loop: a Signal only schedules the
// waiter to resume at the current virtual time, and the state may have
// changed again by the time it runs.
type Cond struct {
	e       *Engine
	waiters []*condWaiter
}

// condWaiter is one blocked process; tmr is non-nil for deadline-bounded
// waits (WaitDeadline) and is canceled when a Signal/Broadcast wins the
// race against the deadline. A process waits on at most one Cond at a
// time (it is suspended while queued), so each Proc embeds its one
// condWaiter and every wait — including the deadline timer, via
// AtReuse — is allocation-free in steady state.
type condWaiter struct {
	p        *Proc
	c        *Cond // the cond this waiter is (or was last) queued on
	tmr      *Timer
	fn       func() // pre-built deadlineFire closure
	timedOut bool
}

// deadlineFire is the timer body for WaitDeadline: if the waiter is
// still queued when the deadline arrives, the wait ends as a timeout.
func (w *condWaiter) deadlineFire() {
	if w.c.remove(w) {
		w.timedOut = true
		w.p.unblock()
	}
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait blocks p until another activity calls Signal or Broadcast. The
// reason string appears in deadlock reports.
func (c *Cond) Wait(p *Proc, reason string) {
	w := &p.cw
	w.p, w.c = p, c
	c.waiters = append(c.waiters, w)
	p.block(reason)
}

// WaitDeadline blocks p until a Signal/Broadcast wakes it or virtual time
// reaches deadline, whichever comes first, and reports whether the wait
// timed out. It costs exactly one timer — armed at block time, canceled
// at wake-up — so a timed wait is event-driven rather than a poll loop.
// A deadline at or before the current time returns true without blocking.
// As with Wait, a false return only means the waiter was woken: the
// predicate must be re-checked by the caller.
func (c *Cond) WaitDeadline(p *Proc, reason string, deadline Time) (timedOut bool) {
	if deadline <= c.e.now {
		return true
	}
	w := &p.cw
	w.p, w.c = p, c
	w.timedOut = false
	if w.fn == nil {
		w.fn = w.deadlineFire
	}
	w.tmr = c.e.AtReuse(deadline, w.fn, w.tmr)
	c.waiters = append(c.waiters, w)
	p.block(reason)
	w.tmr.Cancel() // no-op when the deadline already fired
	return w.timedOut
}

// remove unlinks w from the waiter list, reporting whether it was still
// queued (false means a Signal/Broadcast already claimed it).
func (c *Cond) remove(w *condWaiter) bool {
	for i, cw := range c.waiters {
		if cw == w {
			n := len(c.waiters) - 1
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[n] = nil
			c.waiters = c.waiters[:n]
			return true
		}
	}
	return false
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	w.tmr.Cancel()
	w.p.unblock()
}

// Broadcast wakes every waiting process. The list's backing array is
// kept for reuse; woken processes cannot re-enqueue until the engine
// resumes them, after this loop has finished with it.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for i, w := range ws {
		ws[i] = nil
		w.tmr.Cancel()
		w.p.unblock()
	}
}

// Waiters reports how many processes are blocked on the condition.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Queue is a FIFO channel-like queue in virtual time. A capacity of 0
// means unbounded.
type Queue[T any] struct {
	e        *Engine
	capacity int
	// items[head:] are the queued values. Gets advance head; a Put that
	// finds the backing array full slides the live values down instead of
	// growing it, so steady-state traffic reuses one array.
	items    []T
	head     int
	nonEmpty *Cond
	nonFull  *Cond
	// Deadlock-report reasons, built once so blocking waits allocate nothing.
	fullWhy, emptyWhy string
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](e *Engine, name string, capacity int) *Queue[T] {
	return &Queue[T]{
		e:        e,
		capacity: capacity,
		nonEmpty: NewCond(e),
		nonFull:  NewCond(e),
		fullWhy:  "queue " + name + " full",
		emptyWhy: "queue " + name + " empty",
	}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

func (q *Queue[T]) full() bool {
	return q.capacity > 0 && q.Len() >= q.capacity
}

func (q *Queue[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	q.nonEmpty.Signal()
}

func (q *Queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release the reference
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	q.nonFull.Signal()
	return v
}

// Put enqueues v, blocking while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.full() {
		q.nonFull.Wait(p, q.fullWhy)
	}
	q.push(v)
}

// TryPut enqueues v without blocking; it reports false if the queue is
// full. Safe to call from engine callbacks.
func (q *Queue[T]) TryPut(v T) bool {
	if q.full() {
		return false
	}
	q.push(v)
	return true
}

// Get dequeues the oldest item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.nonEmpty.Wait(p, q.emptyWhy)
	}
	return q.pop()
}

// TryGet dequeues without blocking; ok reports whether an item was
// available. Safe to call from engine callbacks.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.pop(), true
}

// Resource is a counting semaphore with priority-ordered FIFO granting.
// Higher priority values are granted first; ties go to the longer waiter.
type Resource struct {
	e       *Engine
	total   int
	inUse   int
	waiters []resWaiter
	why     string // "resource <name>", built once for deadlock reports
}

type resWaiter struct {
	p    *Proc
	prio int
	seq  uint64 // FIFO tie-break among equal priorities
}

// NewResource returns a semaphore with n units.
func NewResource(e *Engine, name string, n int) *Resource {
	if n <= 0 {
		panic("sim: resource must have at least one unit")
	}
	return &Resource{e: e, total: n, why: "resource " + name}
}

// Total returns the number of units.
func (r *Resource) Total() int { return r.total }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of blocked acquirers.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Acquire takes one unit, blocking until one is available. Units are
// granted to the highest-priority, longest-waiting acquirer.
func (r *Resource) Acquire(p *Proc, prio int) {
	if r.inUse < r.total {
		r.inUse++
		return
	}
	r.e.seq++
	r.waiters = append(r.waiters, resWaiter{p: p, prio: prio, seq: r.e.seq})
	// Release hands the unit straight to us before waking us.
	p.block(r.why)
}

// TryAcquire takes a unit only if one is free.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.total {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit, handing it directly to the best waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of unheld " + r.why)
	}
	if len(r.waiters) == 0 {
		r.inUse--
		return
	}
	best := 0
	for i := 1; i < len(r.waiters); i++ {
		w, b := r.waiters[i], r.waiters[best]
		if w.prio > b.prio || (w.prio == b.prio && w.seq < b.seq) {
			best = i
		}
	}
	p := r.waiters[best].p
	r.waiters = append(r.waiters[:best], r.waiters[best+1:]...)
	// The unit stays inUse and is now owned by p.
	p.unblock()
}
