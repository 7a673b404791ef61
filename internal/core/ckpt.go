package core

import (
	"fmt"
	"sort"
	"strings"

	"genesys/internal/errno"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// --- checkpoint section ----------------------------------------------------

// CheckpointState renders the syscall layer's complete in-flight state
// as a deterministic byte string: tunables, the trace-ID high-water
// mark, every non-free slot (with generation, owner identity and
// blocking bit), the coalescing batch under construction, armed
// retransmit watchdogs, the orphan ledger and the counters. Like the
// engine's section it is a verification fingerprint — restore rebuilds
// this state by deterministic re-execution and proves it reached the
// same bytes (DESIGN.md §10). Pure reads; no scheduling, no randomness.
func (g *Genesys) CheckpointState() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "genesys v1\n")
	fmt.Fprintf(&b, "cfg window=%d max=%d poll=%d packed=%v retx_timeout=%d retx_max=%d\n",
		int64(g.cfg.CoalesceWindow), g.cfg.CoalesceMax, int64(g.cfg.PollInterval),
		g.cfg.PackedSlots, int64(g.cfg.RetransmitTimeout), g.cfg.MaxRetransmits)
	fmt.Fprintf(&b, "next_trace %d\noutstanding %d\n", g.nextTrace, g.outstanding)
	fmt.Fprintf(&b, "counters invocations=%d batches=%d batched_waves=%d conflicts=%d "+
		"orphans_adopted=%d orphans_completed=%d irq_retx=%d retries=%d\n",
		g.Invocations, g.Batches, g.BatchedWaves, g.SlotConflicts,
		g.OrphansAdopted, g.OrphansCompleted, g.IRQRetransmits, g.Retries)

	// Non-free slots, in slot-ID order (the array is already ordered).
	busy := 0
	for i := range g.hot {
		if g.hot[i].state != SlotFree {
			busy++
		}
	}
	fmt.Fprintf(&b, "slots %d busy %d\n", len(g.hot), busy)
	for i, h := range g.hot {
		if h.state == SlotFree {
			continue
		}
		s := g.slot(i)
		owner := ""
		if s.owner != nil {
			owner = fmt.Sprintf("%d:%s", s.owner.PID, s.owner.Name)
		}
		fmt.Fprintf(&b, "slot %d state=%s gen=%d blocking=%v nr=%d trace=%d owner=%q ret=%d err=%d\n",
			s.ID, h.state, h.gen, h.blocking, s.Req.NR, s.trace.id, owner,
			s.Req.Ret, int(s.Req.Err))
	}

	// Coalescing batch under construction (FIFO order is deterministic).
	fmt.Fprintf(&b, "pending_waves %d timer=%v\n", len(g.pendingWaves), g.coalesceTmr != nil)
	for _, db := range g.pendingWaves {
		fmt.Fprintf(&b, "pending hw=%d gen=%d\n", db.hw, db.gen)
	}

	// Armed retransmit watchdogs, sorted by (hw, gen).
	keys := make([]doorbell, 0, len(g.retx))
	for db := range g.retx {
		keys = append(keys, db)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].hw != keys[j].hw {
			return keys[i].hw < keys[j].hw
		}
		return keys[i].gen < keys[j].gen
	})
	fmt.Fprintf(&b, "retx %d\n", len(keys))
	for _, db := range keys {
		st := g.retx[db]
		fmt.Fprintf(&b, "retx hw=%d gen=%d attempts=%d sent=%v\n", db.hw, db.gen, st.attempts, st.sent)
	}

	// Orphan ledger, sorted by slot ID.
	oids := make([]int, 0, len(g.orphans))
	for id := range g.orphans {
		oids = append(oids, id)
	}
	sort.Ints(oids)
	fmt.Fprintf(&b, "orphans %d\n", len(oids))
	for _, id := range oids {
		fmt.Fprintf(&b, "orphan slot=%d gen=%d\n", id, g.orphans[id])
	}
	return []byte(b.String())
}

// --- syscall stream recorder -----------------------------------------------

// SyscallEvent is one observation of the GPU→kernel syscall stream: a
// slot reaching ready (the moment the GPU hands the call to the CPU
// pipeline) or a call completing. Ready events carry the full request
// as populated; done events carry the result.
type SyscallEvent struct {
	Trace    uint64
	NR       int
	Slot     int
	Wave     int
	Gen      uint64
	Blocking bool
	At       sim.Time
	Args     [6]uint64
	Buf      []byte
	Ret      int64
	Err      errno.Errno
}

// Recorder observes the syscall stream. SyscallReady fires when a slot
// flips to ready (both GPU-populated and replay-injected slots); and
// SyscallDone when its call completes and its trace is finalized.
// Callbacks run inline at the observation point and must not block or
// schedule events — recording must not perturb virtual time.
type Recorder interface {
	SyscallReady(SyscallEvent)
	SyscallDone(SyscallEvent)
}

// SetRecorder attaches (or with nil, detaches) a syscall stream
// recorder.
func (g *Genesys) SetRecorder(r Recorder) { g.rec = r }

func (g *Genesys) noteReady(s *Slot) {
	if g.rec == nil {
		return
	}
	buf := s.Req.Buf
	if len(buf) > 0 {
		buf = append([]byte(nil), buf...) // handlers may consume/rewrite Buf
	}
	g.rec.SyscallReady(SyscallEvent{
		Trace: s.trace.id, NR: s.Req.NR, Slot: s.ID, Wave: s.trace.wave,
		Gen: g.hot[s.ID].gen, Blocking: g.hot[s.ID].blocking, At: g.E.Now(),
		Args: s.Req.Args, Buf: buf,
	})
}

func (g *Genesys) noteDone(s *Slot) {
	if g.rec == nil {
		return
	}
	g.rec.SyscallDone(SyscallEvent{
		Trace: s.trace.id, NR: s.trace.nr, Slot: s.ID, Wave: s.trace.wave,
		Gen: g.hot[s.ID].gen, Blocking: g.hot[s.ID].blocking, At: g.E.Now(),
		Ret: s.Req.Ret, Err: s.Req.Err,
	})
}

// --- replay injection ------------------------------------------------------

// ErrSlotBusy is returned by InjectReady when the target slot is still
// occupied by an earlier in-flight call; the replay driver queues the
// event and retries when the slot's predecessor completes.
var ErrSlotBusy = fmt.Errorf("genesys: syscall slot busy")

// InjectReady populates syscall-area slot slotID directly from a
// recorded trace event and flips it to ready — the CPU-side equivalent
// of populateSlot for replay, where no GPU wavefront exists. The
// injected call is always non-blocking (there is no work-item to
// harvest a blocking result; the worker frees the slot on completion),
// executes in the default bound process's context, and is counted as a
// normal invocation. req.Trace, when non-zero, is preserved as the
// call's trace ID so replayed traces correlate with the recording.
//
// The caller must follow up with RingDoorbell for the slot's hardware
// wavefront, exactly as the GPU would.
func (g *Genesys) InjectReady(slotID int, gen uint64, req syscalls.Request) error {
	if slotID < 0 || slotID >= len(g.hot) {
		return fmt.Errorf("genesys: inject: slot %d out of range", slotID)
	}
	if g.proc == nil {
		return fmt.Errorf("genesys: inject: no process bound; call BindProcess first")
	}
	h := &g.hot[slotID]
	if h.state != SlotFree {
		return ErrSlotBusy
	}
	s := g.slot(slotID)
	id := req.Trace
	if id == 0 {
		g.nextTrace++
		id = g.nextTrace
	} else if id > g.nextTrace {
		g.nextTrace = id
	}
	now := g.E.Now()
	h.state = SlotPopulating
	s.trace = callTrace{
		id: id, nr: req.NR, wave: slotID / g.simd, gen: gen,
		worker: -1, claim: now, ready: now,
	}
	s.owner = g.proc
	h.gen = gen
	req.Ret, req.Err = 0, errno.OK
	req.Trace = id
	s.Req = req
	h.blocking = false
	h.state = SlotReady
	g.Invocations++
	g.outstanding++
	g.noteReady(s)
	return nil
}

// RingDoorbell re-creates the GPU→CPU interrupt for hardware wavefront
// hw at generation gen: the handler (with its coalescing machinery)
// runs after the device's InterruptLatency, exactly as a wavefront's
// s_sendmsg would deliver it.
func (g *Genesys) RingDoorbell(hw int, gen uint64) {
	g.E.CallAfter(g.GPU.Config().InterruptLatency, func() { g.handleIRQ(hw, gen) })
}
