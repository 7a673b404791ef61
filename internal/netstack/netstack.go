// Package netstack models a minimal IP stack: UDP-like datagram sockets
// with bind/sendto/recvfrom semantics, bounded receive queues (overflowing
// datagrams are dropped, as UDP does), TCP-like stream sockets with
// connect/listen/accept/backlog semantics (stream.go), poll-style
// readiness multiplexing (poll.go), and configurable delivery latency.
// It is the substrate for the paper's memcached case study (§VIII-D),
// which GENESYS serves with plain POSIX sendto/recvfrom — no RDMA — and
// for the million-client service-fleet scenario layered on top of it.
package netstack

import (
	"math/bits"

	"genesys/internal/errno"
	"genesys/internal/fault"
	"genesys/internal/obs"
	"genesys/internal/sim"
)

// Ephemeral port range for Bind(0), matching Linux's default
// net.ipv4.ip_local_port_range.
const (
	EphemeralMin = 32768
	EphemeralMax = 60999
)

// Config holds stack parameters.
type Config struct {
	DeliveryLatency sim.Time // one-way datagram latency
	JitterMax       sim.Time // uniform extra latency [0, JitterMax)
	RecvQueueCap    int      // per-socket receive queue capacity
	MaxDatagram     int      // maximum payload size
	StreamWindow    int      // per-connection stream receive window (bytes)
}

// DefaultConfig returns a LAN-like stack: 20 us delivery, 5 us jitter,
// 512-datagram socket buffers, 64 KiB max payload, 64 KiB stream windows.
func DefaultConfig() Config {
	return Config{
		DeliveryLatency: 20 * sim.Microsecond,
		JitterMax:       5 * sim.Microsecond,
		RecvQueueCap:    512,
		MaxDatagram:     64 << 10,
		StreamWindow:    64 << 10,
	}
}

// Datagram is one UDP message.
type Datagram struct {
	SrcPort int
	DstPort int
	Data    []byte
	SentAt  sim.Time
}

// Stack is the simulated network.
type Stack struct {
	e     *sim.Engine
	cfg   Config
	ports map[int]*Socket

	nextEphemeral int

	inject *fault.Injector
	events *obs.EventLog

	// Hot-path recycling: in-flight payloads and datagram delivery
	// callbacks are drawn from these freelists so steady-state datagram
	// traffic allocates nothing per packet (a stream segment allocates
	// only its delivery closure). bufFree is segregated by power-of-two
	// capacity class; each class is bounded so a burst cannot pin memory
	// forever.
	bufFree  [bufClasses][][]byte
	inflFree []*inflight
	pollFree []*Poller

	Sent    int64
	Dropped int64

	// Stream-socket accounting (stream.go).
	StreamConns   int64 // connections ever established
	StreamRefused int64 // connects refused (no listener / backlog full)
	StreamBytes   int64 // payload bytes delivered over streams
}

// noteDrop counts a lost datagram and marks it in the event log.
func (s *Stack) noteDrop(dg Datagram) {
	s.Dropped++
	s.events.Instant("netstack", "drop", obs.PIDNetstack, dg.DstPort, s.e.Now())
}

// New returns a stack bound to e. Every dropped datagram becomes an
// instant on the destination port's timeline in events. Faults from in:
// injected drops are lost in flight, resets refuse sends with
// ECONNREFUSED, and eagain faults fail sends as if the send buffer were
// full.
func New(e *sim.Engine, cfg Config, events *obs.EventLog, in *fault.Injector) *Stack {
	if cfg.RecvQueueCap <= 0 {
		cfg.RecvQueueCap = 512
	}
	if cfg.MaxDatagram <= 0 {
		cfg.MaxDatagram = 64 << 10
	}
	if cfg.StreamWindow <= 0 {
		cfg.StreamWindow = 64 << 10
	}
	return &Stack{e: e, cfg: cfg, ports: make(map[int]*Socket), nextEphemeral: EphemeralMin,
		inject: in, events: events}
}

// Config returns the stack configuration.
func (s *Stack) Config() Config { return s.cfg }

// bufClasses covers payload capacities up to MaxDatagram-scale (2^26).
const bufClasses = 27

// bufClass is the freelist index for a buffer of n bytes: the smallest
// power-of-two capacity that holds it.
func bufClass(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// getBuf returns a payload buffer of length n from the pool (or a fresh
// power-of-two-capacity allocation on a miss). Contents are undefined.
func (s *Stack) getBuf(n int) []byte {
	c := bufClass(n)
	if c >= bufClasses {
		return make([]byte, n)
	}
	fl := &s.bufFree[c]
	if k := len(*fl); k > 0 {
		b := (*fl)[k-1]
		(*fl)[k-1] = nil
		*fl = (*fl)[:k-1]
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// PutBuf returns a datagram payload to the stack's pool. Consumers that
// fully copy a Datagram's Data out (the recvfrom syscall does) call this
// so the buffer is reused by a later send; anyone else may simply drop
// the reference. Only pool-shaped (power-of-two capacity) buffers are
// retained, and each size class is bounded.
func (s *Stack) PutBuf(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := bufClass(c)
	if cls >= bufClasses || len(s.bufFree[cls]) >= 1024 {
		return
	}
	s.bufFree[cls] = append(s.bufFree[cls], b[:c])
}

// SockType distinguishes datagram (UDP-like) from stream (TCP-like)
// sockets.
type SockType int

const (
	// Dgram is a connectionless datagram socket (SOCK_DGRAM).
	Dgram SockType = iota
	// Stream is a connection-oriented byte-stream socket (SOCK_STREAM).
	Stream
)

func (t SockType) String() string {
	if t == Stream {
		return "stream"
	}
	return "dgram"
}

// Socket is one endpoint: a datagram socket, a stream listener, or one
// side of an established stream connection.
type Socket struct {
	stack *Stack
	typ   SockType
	port  int // 0 = unbound
	open  bool

	// rx is the readiness condition: signaled on datagram arrival, stream
	// data/EOF, pending connections, and broadcast on close — every
	// blocking receive-side wait parks here.
	rx *sim.Cond

	// Datagram receive queue; live entries are rq[rqHead:]. Pops advance
	// the head instead of re-slicing so the backing array is reused.
	rq     []Datagram
	rqHead int

	// handler, when set, receives arriving datagrams directly instead of
	// queueing them — the callback mode event-driven clients (the fleet
	// load generator) use to exist without a blocked process each.
	handler func(Datagram)

	// Stream state (stream.go).
	listening  bool
	backlog    []*Socket // established, not yet accepted connections
	backlogMax int
	peer       *Socket // the other endpoint of an established connection
	remotePort int     // peer's port, fixed at establishment
	connected  bool    // Connect completed (client side)
	connErr    errno.Errno
	rbuf       []byte    // stream receive buffer (bounded by StreamWindow)
	rbufHead   int       // consumed prefix of rbuf; live bytes are rbuf[rbufHead:]
	inFlight   int       // bytes sent, not yet landed in rbuf
	peerClosed bool      // peer's FIN arrived: EOF after rbuf drains
	finPending bool      // FIN arrived while data was still in flight
	reset      bool      // peer closed abruptly (listener teardown): ECONNRESET
	txSpace    *sim.Cond // send-side wait for receive-window space

	// watchers are the pollers currently multiplexing this socket
	// (poll.go); every readiness transition wakes them. A slice, not a
	// map: notification order must be deterministic for the engine's
	// bit-reproducibility guarantee.
	watchers []*Poller
}

// NewSocket creates an unbound datagram socket.
func (s *Stack) NewSocket() *Socket { return s.newSocket(Dgram) }

// NewStreamSocket creates an unbound stream socket.
func (s *Stack) NewStreamSocket() *Socket { return s.newSocket(Stream) }

func (s *Stack) newSocket(t SockType) *Socket {
	return &Socket{
		stack:   s,
		typ:     t,
		open:    true,
		rx:      sim.NewCond(s.e),
		txSpace: sim.NewCond(s.e),
	}
}

// Type returns the socket type.
func (sk *Socket) Type() SockType { return sk.typ }

// Port returns the bound port (0 if unbound).
func (sk *Socket) Port() int { return sk.port }

// Open reports whether the socket has not been closed.
func (sk *Socket) Open() bool { return sk.open }

// RemotePort returns the peer's port for an established stream socket
// (0 otherwise).
func (sk *Socket) RemotePort() int { return sk.remotePort }

// wakeReady notifies everything waiting for this socket to become
// readable: one blocked receiver (they consume one event each; close and
// EOF broadcast separately) and every poll group watching the socket.
func (sk *Socket) wakeReady() {
	sk.rx.Signal()
	sk.notifyWatchers()
}

// wakeAll wakes every blocked receiver and watcher — used for state
// changes that are visible to all waiters at once (close, EOF).
func (sk *Socket) wakeAll() {
	sk.rx.Broadcast()
	sk.txSpace.Broadcast()
	sk.notifyWatchers()
}

// Bind attaches the socket to a port; port 0 picks an ephemeral one.
// When every ephemeral port is in use, Bind(0) fails with EADDRINUSE
// after one full scan of the range rather than spinning forever.
func (sk *Socket) Bind(port int) error {
	if !sk.open {
		return errno.EBADF
	}
	if sk.port != 0 {
		return errno.EINVAL
	}
	st := sk.stack
	if port == 0 {
		start := st.nextEphemeral
		for {
			st.nextEphemeral++
			if st.nextEphemeral > EphemeralMax {
				st.nextEphemeral = EphemeralMin
			}
			if _, used := st.ports[st.nextEphemeral]; !used {
				port = st.nextEphemeral
				break
			}
			if st.nextEphemeral == start {
				return errno.EADDRINUSE // full wrap: range exhausted
			}
		}
	} else if _, used := st.ports[port]; used {
		return errno.EADDRINUSE
	}
	st.ports[port] = sk
	sk.port = port
	return nil
}

// Close releases the socket and its port. Every process blocked on the
// socket — receivers parked in RecvFrom/RecvFromTimeout, accepters in
// Accept, senders waiting for stream window space — is woken and observes
// EBADF; pending and established stream peers see a reset/EOF (stream.go).
func (sk *Socket) Close() {
	if !sk.open {
		return
	}
	sk.open = false
	// Accepted stream connections report the listener's port without
	// owning the port-table entry, so only the owner releases it.
	if sk.port != 0 && sk.stack.ports[sk.port] == sk {
		delete(sk.stack.ports, sk.port)
	}
	sk.port = 0
	if sk.typ == Stream {
		sk.closeStream()
	}
	sk.wakeAll()
}

// ensureBound lazily binds an ephemeral port (sendto on unbound socket).
func (sk *Socket) ensureBound() error {
	if sk.port == 0 {
		return sk.Bind(0)
	}
	return nil
}

// delay returns the one-way delivery latency including jitter.
func (s *Stack) delay() sim.Time {
	d := s.cfg.DeliveryLatency
	if s.cfg.JitterMax > 0 {
		d += sim.Time(s.e.Rand.Int63n(int64(s.cfg.JitterMax)))
	}
	return d
}

// SendTo transmits data to dstPort. Delivery happens after the stack
// latency; if the destination queue is full the datagram is dropped.
// Safe to call from procs; the wire latency is not charged to the sender.
// On a connected stream socket dstPort is ignored and the bytes go to the
// peer (send(2) semantics — see stream.go).
func (sk *Socket) SendTo(dstPort int, data []byte) error {
	if !sk.open {
		return errno.EBADF
	}
	if sk.typ == Stream {
		if sk.peer == nil {
			return errno.ENOTCONN
		}
		_, err := sk.sendStream(data)
		return err
	}
	if len(data) > sk.stack.cfg.MaxDatagram {
		return errno.EMSGSIZE
	}
	if err := sk.ensureBound(); err != nil {
		return err
	}
	if sk.stack.inject.Should(fault.NetEAGAIN) {
		return errno.EAGAIN // send buffer full; restartable callers retry
	}
	if sk.stack.inject.Should(fault.NetReset) {
		sk.stack.inject.NoteSurfaced()
		return errno.ECONNREFUSED // peer reset: surfaced, not retryable
	}
	st := sk.stack
	payload := st.getBuf(len(data))
	copy(payload, data)
	st.Sent++
	st.sendDatagram(Datagram{SrcPort: sk.port, DstPort: dstPort, Data: payload, SentAt: st.e.Now()})
	return nil
}

// inflight is one datagram on the wire: a pooled carrier whose pre-built
// callback delivers it, so per-packet transmission costs no closure or
// carrier allocation in steady state.
type inflight struct {
	st *Stack
	dg Datagram
	fn func()
}

// sendDatagram schedules dg's delivery after the wire latency using a
// pooled carrier.
func (s *Stack) sendDatagram(dg Datagram) {
	var f *inflight
	if k := len(s.inflFree); k > 0 {
		f = s.inflFree[k-1]
		s.inflFree[k-1] = nil
		s.inflFree = s.inflFree[:k-1]
	} else {
		f = &inflight{st: s}
		f.fn = f.deliver
	}
	f.dg = dg
	s.e.CallAfter(s.delay(), f.fn)
}

// deliver lands one datagram: the original SendTo delivery logic, with
// the carrier recycled up front (a handler may send again reentrantly)
// and the payload recycled on every path where the stack still owns it.
func (f *inflight) deliver() {
	st, dg := f.st, f.dg
	f.dg = Datagram{}
	st.inflFree = append(st.inflFree, f)
	if st.inject.Should(fault.NetDrop) {
		st.noteDrop(dg) // lost in flight
		st.PutBuf(dg.Data)
		return
	}
	dst, ok := st.ports[dg.DstPort]
	if !ok || !dst.open || dst.typ != Dgram {
		st.noteDrop(dg)
		st.PutBuf(dg.Data)
		return
	}
	if dst.handler != nil {
		dst.handler(dg) // callback-mode socket: no queue, no waiters
		st.PutBuf(dg.Data)
		return
	}
	if dst.queued() >= st.cfg.RecvQueueCap {
		st.noteDrop(dg)
		st.PutBuf(dg.Data)
		return
	}
	if dst.rqHead > 0 && len(dst.rq) == cap(dst.rq) {
		// Reclaim the popped prefix instead of growing the array.
		n := copy(dst.rq, dst.rq[dst.rqHead:])
		for i := n; i < len(dst.rq); i++ {
			dst.rq[i] = Datagram{}
		}
		dst.rq = dst.rq[:n]
		dst.rqHead = 0
	}
	dst.rq = append(dst.rq, dg)
	dst.wakeReady()
}

// queued returns the datagram receive-queue depth.
func (sk *Socket) queued() int { return len(sk.rq) - sk.rqHead }

// popRQ removes and returns the oldest queued datagram.
func (sk *Socket) popRQ() Datagram {
	dg := sk.rq[sk.rqHead]
	sk.rq[sk.rqHead] = Datagram{}
	sk.rqHead++
	if sk.rqHead == len(sk.rq) {
		sk.rq = sk.rq[:0]
		sk.rqHead = 0
	}
	return dg
}

// RecvFrom blocks until a datagram arrives and returns it. A Close from
// another activity wakes the receiver with EBADF instead of stranding it.
func (sk *Socket) RecvFrom(p *sim.Proc) (Datagram, error) {
	return sk.RecvFromTimeout(p, 0)
}

// RecvFromTimeout is RecvFrom bounded by d: it returns EAGAIN when no
// datagram arrives before the deadline — the escape hatch applications
// need on a lossy network, where a dropped request would otherwise block
// the receiver forever. d <= 0 blocks indefinitely. The wait is
// event-driven (queue wake-up plus one deadline timer), and a concurrent
// Close wakes the waiter immediately with EBADF rather than letting it
// sleep to its deadline.
func (sk *Socket) RecvFromTimeout(p *sim.Proc, d sim.Time) (Datagram, error) {
	if sk.typ == Stream {
		return Datagram{}, errno.EINVAL
	}
	var deadline sim.Time
	if d > 0 {
		deadline = sk.stack.e.Now() + d
	}
	for {
		if !sk.open {
			return Datagram{}, errno.EBADF
		}
		if sk.queued() > 0 {
			return sk.popRQ(), nil
		}
		if deadline == 0 {
			sk.rx.Wait(p, "udp recv")
			continue
		}
		if sk.rx.WaitDeadline(p, "udp recv (timed)", deadline) {
			return Datagram{}, errno.EAGAIN
		}
	}
}

// SetRecvHandler switches a datagram socket into callback mode: arriving
// datagrams are handed to fn from the engine's delivery event instead of
// being queued for a blocking receiver. This lets very large client
// populations (the fleet load generator) run as pure event-driven state
// machines with no parked process per socket. fn runs in engine-callback
// context and must not block; the datagram's Data is pooled storage that
// is recycled when fn returns, so handlers must copy anything they keep.
// Pass nil to restore queueing.
func (sk *Socket) SetRecvHandler(fn func(Datagram)) { sk.handler = fn }

// TryRecv returns a queued datagram without blocking.
func (sk *Socket) TryRecv() (Datagram, bool) {
	if !sk.open || sk.typ != Dgram || sk.queued() == 0 {
		return Datagram{}, false
	}
	return sk.popRQ(), true
}

// QueueLen returns the receive queue depth (datagrams for Dgram sockets,
// pending connections for listeners, buffered bytes for stream peers).
func (sk *Socket) QueueLen() int {
	switch {
	case sk.typ == Dgram:
		return sk.queued()
	case sk.listening:
		return len(sk.backlog)
	default:
		return sk.buffered()
	}
}
