//go:build go1.23

// Each Proc body runs on a pooled iter.Pull coroutine: a direct goroutine
// switch, no scheduler round trip. A coroutine runs bodies back to back;
// between bodies it is parked on its engine's free list, and Shutdown
// stops it. The build line sets this file's language version, as the
// module's go directive predates iter.Pull.

package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procNew procState = iota
	procRunnable
	procRunning
	procBlocked
	procDone
)

type killSignal struct{}

// Proc is a simulated process: a coroutine whose interaction with time is
// mediated by the engine. All Proc methods must be called from the
// process's own body.
type Proc struct {
	e      *Engine
	name   string
	co     *coro // the coroutine running this body
	state  procState
	reason string // why the proc is blocked, for deadlock reports
	idx    int    // position in Engine.procs, for swap-remove reaping
	daemon bool
	killed bool

	// cw is this process's condition-variable waiter, embedded so Cond
	// waits allocate nothing: a suspended process occupies at most one
	// wait list at a time (see sync.go).
	cw condWaiter
}

// coro is one pooled coroutine: an iter.Pull goroutine that runs proc
// bodies back to back. While it runs a body, p and fn are that body's;
// between bodies they are nil and the coroutine is parked in yield on
// Engine.pool.
type coro struct {
	next  func() (struct{}, bool) // runs the body until it next suspends or returns
	stop  func()                  // ends the parked coroutine (Shutdown only)
	yield func(struct{}) bool     // suspends the body back into next
	p     *Proc
	fn    func(*Proc)
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Rand returns the engine's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.e.Rand }

// Spawn starts a new process named name running fn. The process begins
// execution at the current virtual time, after the caller next yields to
// the engine.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon starts a process that is expected to block forever (worker
// pools, dispatchers). Daemons do not count toward deadlock detection and
// are reaped by Shutdown.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{e: e, name: name, daemon: daemon}
	p.idx = len(e.procs)
	e.procs = append(e.procs, p)
	e.live++
	e.stats.ProcsSpawned++
	if !daemon {
		e.liveUser++
	}
	var c *coro
	if n := len(e.pool); n > 0 {
		c = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		c = e.newCoro()
	}
	c.p, c.fn = p, fn
	p.co = c
	e.schedule(e.now, p, nil)
	p.state = procRunnable
	return p
}

// newCoro starts a coroutine that runs bodies until Shutdown stops it.
// After each body it drops the body's references and parks itself on
// e.pool; the next spawn that pops it resumes it with the new body.
func (e *Engine) newCoro() *coro {
	c := new(coro)
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			e.runBody(c.p, c.fn)
			c.p, c.fn = nil, nil
			e.pool = append(e.pool, c)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// runBody runs fn as p's body. Recovering here, per body, keeps a crash
// or a kill from ending the coroutine or re-panicking out of next in the
// engine loop: Run reports the crash, and the coroutine goes on to its
// next body.
func (e *Engine) runBody(p *Proc, fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killSignal); !isKill && e.fatal == nil {
				e.fatal = fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}
		p.state = procDone
		e.live--
		if !p.daemon {
			e.liveUser--
		}
		e.reap(p)
	}()
	if p.killed {
		panic(killSignal{})
	}
	p.state = procRunning
	fn(p)
}

// reap removes a completed process from the proc table by swap-remove, so
// long-running simulations do not accumulate one *Proc per retired
// activity (e.g. per retired wavefront). It runs on the dying process's
// coroutine while the engine is suspended in resume(), so the table is
// never touched concurrently; deadlock reports and Shutdown only ever need
// the still-live processes that remain.
func (e *Engine) reap(p *Proc) {
	last := len(e.procs) - 1
	if p.idx < 0 || p.idx > last || e.procs[p.idx] != p {
		return
	}
	moved := e.procs[last]
	e.procs[p.idx] = moved
	moved.idx = p.idx
	e.procs[last] = nil
	e.procs = e.procs[:last]
	p.idx = -1
	e.stats.ProcsReaped++
}

// resume switches into p's coroutine and returns once p blocks again or
// finishes.
func (e *Engine) resume(p *Proc) {
	if p.state == procDone {
		return
	}
	e.stats.ProcSwitches++
	e.inProc = true
	p.co.next()
	e.inProc = false
}

// switchToEngine suspends the process back into the engine's resume and
// returns when the engine next resumes it.
func (p *Proc) switchToEngine() {
	p.co.yield(struct{}{})
	if p.killed {
		panic(killSignal{})
	}
	p.state = procRunning
}

// Shutdown kills every still-live process, unwinding its body (deferred
// calls run), then stops every pooled coroutine, so no goroutine outlives
// the engine. It must be called from outside the engine loop (i.e. not
// from a proc or callback), typically after Run returns.
func (e *Engine) Shutdown() {
	// Dying procs swap-remove themselves from e.procs, so kill a snapshot.
	live := make([]*Proc, len(e.procs))
	copy(live, e.procs)
	for _, p := range live {
		if p == nil || p.state == procDone || p.state == procNew {
			continue
		}
		p.killed = true
		e.resume(p)
	}
	// Every body has ended, so every coroutine is parked on the pool.
	for _, c := range e.pool {
		c.stop()
	}
	e.pool = nil
	e.discarded += uint64(e.Pending())
	e.cal = calendar{}
	e.far.evs = nil
}
