//go:build go1.23

// Each Proc body runs in an iter.Pull coroutine: a direct goroutine
// switch, no scheduler round trip. The build line sets this file's
// language version, as the module's go directive predates iter.Pull.

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
	next   func() (struct{}, bool) // runs the body until it next suspends or returns
	yield  func(struct{}) bool     // suspends the body back into next
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
	// The body always runs to its end (Shutdown kills rather than
	// abandons), so the coroutine finishes on its own and stop is unused.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// Recovering here, inside the coroutine, keeps a crash from
			// re-panicking out of next in the engine loop: Run reports it.
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
	})
	e.schedule(e.now, p, nil)
	p.state = procRunnable
	return p
}

// reap removes a completed process from the proc table by swap-remove, so
// long-running simulations do not accumulate one *Proc per retired
// activity (e.g. per retired wavefront). It runs in the dying process's
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
	p.next()
	e.inProc = false
}

// switchToEngine suspends the process back into the engine's resume and
// returns when the engine next resumes it.
func (p *Proc) switchToEngine() {
	p.yield(struct{}{})
	if p.killed {
		panic(killSignal{})
	}
	p.state = procRunning
}

// Shutdown kills every still-live process, unwinding its body (deferred
// calls run) so no coroutine is left suspended. It must be called from
// outside the engine loop (i.e. not from a proc or callback), typically
// after Run returns.
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
	e.cal = calendar{}
	e.far.evs = nil
}
