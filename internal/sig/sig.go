// Package sig models POSIX queued signals (the rt_sigqueueinfo path):
// per-process signal queues carrying a siginfo payload, consumed by
// CPU-side handler threads. This is the substrate for the paper's
// signal-search case study (§VIII-B), where GPU work-groups notify the
// CPU of partial completions so checksum work can overlap the search.
package sig

import (
	"genesys/internal/sim"
)

// Common signal numbers.
const (
	SIGUSR1  = 10
	SIGUSR2  = 12
	SIGRTMIN = 34
)

// Siginfo is the payload delivered with a queued signal, mirroring the
// fields of siginfo_t that rt_sigqueueinfo lets the sender fill: the
// paper's workload passes the completed work-group's identifier in
// si_value (§VIII-B).
type Siginfo struct {
	Signo  int
	Pid    int   // sending process
	Value  int64 // si_value payload
	SentAt sim.Time
}

// State is one process's signal state.
type State struct {
	e     *sim.Engine
	queue *sim.Queue[Siginfo]

	Delivered int64
}

// NewState returns empty signal state for one process.
func NewState(e *sim.Engine) *State {
	return &State{e: e, queue: sim.NewQueue[Siginfo](e, "signals", 0)}
}

// Queue delivers a signal (callable from callbacks and procs alike).
func (s *State) Queue(si Siginfo) {
	si.SentAt = s.e.Now()
	s.queue.TryPut(si)
	s.Delivered++
}

// Wait blocks until a signal is queued and returns it (sigwaitinfo).
func (s *State) Wait(p *sim.Proc) Siginfo {
	return s.queue.Get(p)
}

// TryWait returns a pending signal without blocking.
func (s *State) TryWait() (Siginfo, bool) {
	return s.queue.TryGet()
}

// Pending returns the number of queued signals.
func (s *State) Pending() int { return s.queue.Len() }
