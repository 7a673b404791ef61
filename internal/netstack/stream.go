package netstack

import (
	"genesys/internal/errno"
	"genesys/internal/fault"
	"genesys/internal/sim"
)

// Stream sockets: a TCP-like connection-oriented byte stream layered on
// the same simulated wire as datagrams. The model keeps TCP's interface
// semantics — listen/accept with a bounded backlog, connect with refusal,
// flow control via a fixed receive window, EOF and reset on teardown —
// while abstracting the protocol machinery: the three-way handshake is a
// single round trip, and loss faults surface as retransmission delay (one
// extra RTT) rather than data loss, because a reliable transport hides
// drops behind latency.

// Listen marks a bound stream socket as accepting connections with the
// given backlog (clamped to at least 1). Pending connections beyond the
// backlog are refused with ECONNREFUSED at the connecting end.
func (sk *Socket) Listen(backlog int) error {
	if !sk.open {
		return errno.EBADF
	}
	if sk.typ != Stream {
		return errno.EOPNOTSUPP
	}
	if sk.port == 0 {
		return errno.EINVAL
	}
	if sk.peer != nil || sk.connected {
		return errno.EISCONN
	}
	if backlog < 1 {
		backlog = 1
	}
	sk.listening = true
	sk.backlogMax = backlog
	return nil
}

// Connect establishes a connection to a listening stream socket on
// dstPort. The caller blocks for the handshake round trip; refusal (no
// listener, backlog full, or an injected reset) costs the same round trip
// and returns ECONNREFUSED.
func (sk *Socket) Connect(p *sim.Proc, dstPort int) error {
	if !sk.open {
		return errno.EBADF
	}
	if sk.typ != Stream {
		return errno.EOPNOTSUPP
	}
	if sk.connected || sk.listening {
		return errno.EISCONN
	}
	if err := sk.ensureBound(); err != nil {
		return err
	}
	st := sk.stack
	if st.inject.Should(fault.NetReset) {
		st.inject.NoteSurfaced()
		st.StreamRefused.Inc()
		return errno.ECONNREFUSED
	}
	// SYN after one-way delay; SYN-ACK (or RST) after another.
	st.e.CallAfter(st.delay(), func() {
		lst, ok := st.ports[dstPort]
		if !ok || !lst.open || !lst.listening || len(lst.backlog) >= lst.backlogMax {
			st.StreamRefused.Inc()
			st.e.CallAfter(st.delay(), func() {
				if !sk.open {
					return
				}
				sk.connErr = errno.ECONNREFUSED
				sk.connected = true // handshake resolved (with error)
				sk.wakeAll()
			})
			return
		}
		// Create the server-side endpoint now so the accept queue length
		// (SYN backlog) is charged at SYN time, as a real stack would.
		conn := st.newSocket(Stream)
		conn.port = lst.port // reported port; lst owns the table entry
		conn.connected = true
		lst.backlog = append(lst.backlog, conn)
		st.e.CallAfter(st.delay(), func() {
			if !sk.open {
				// Connector closed mid-handshake: orphan the server side.
				conn.reset = true
				conn.wakeAll()
				return
			}
			sk.peer = conn
			conn.peer = sk
			sk.remotePort = dstPort
			conn.remotePort = sk.port
			sk.connected = true
			st.StreamConns.Inc()
			sk.wakeAll()
			lst.wakeReady() // connection is now acceptable
		})
	})
	for !sk.connected {
		if !sk.open {
			return errno.EBADF
		}
		sk.rx.Wait(p, "stream connect")
	}
	if sk.connErr != 0 {
		err := sk.connErr
		sk.connected = false
		sk.connErr = 0
		return err
	}
	return nil
}

// Accept blocks until a pending connection is available and returns the
// connected server-side socket. The returned socket reports the
// listener's port but does not own it: closing a connection never
// unbinds its listener.
func (sk *Socket) Accept(p *sim.Proc) (*Socket, error) {
	return sk.AcceptTimeout(p, 0)
}

// AcceptTimeout is Accept bounded by d (d <= 0 blocks indefinitely);
// EAGAIN on deadline, EBADF if the listener closes mid-wait.
func (sk *Socket) AcceptTimeout(p *sim.Proc, d sim.Time) (*Socket, error) {
	if sk.typ != Stream || !sk.listening {
		if !sk.open {
			return nil, errno.EBADF
		}
		return nil, errno.EINVAL
	}
	var deadline sim.Time
	if d > 0 {
		deadline = sk.stack.e.Now() + d
	}
	for {
		if !sk.open {
			return nil, errno.EBADF
		}
		if len(sk.backlog) > 0 {
			conn := sk.backlog[0]
			sk.backlog = sk.backlog[1:]
			return conn, nil
		}
		if deadline == 0 {
			sk.rx.Wait(p, "stream accept")
			continue
		}
		if sk.rx.WaitDeadline(p, "stream accept (timed)", deadline) {
			return nil, errno.EAGAIN
		}
	}
}

// buffered returns the bytes queued in the stream receive buffer.
func (sk *Socket) buffered() int { return len(sk.rbuf) - sk.rbufHead }

// window returns the free space in the peer's receive window as seen by
// this sender: the configured window minus buffered and in-flight bytes.
func (sk *Socket) window() int {
	if sk.peer == nil {
		return 0
	}
	return sk.stack.cfg.StreamWindow - sk.peer.buffered() - sk.peer.inFlight
}

// sendStream queues up to window-many bytes of data for delivery to the
// peer and returns how many were taken. Zero window returns (0, EAGAIN);
// callers that want to block use Send. Loss faults become one extra
// round trip of delivery latency (retransmission), not data loss.
func (sk *Socket) sendStream(data []byte) (int, error) {
	if !sk.open {
		return 0, errno.EBADF
	}
	peer := sk.peer
	if peer == nil || !sk.connected {
		return 0, errno.ENOTCONN
	}
	if sk.peerClosed || sk.reset || !peer.open {
		return 0, errno.EPIPE
	}
	if len(data) == 0 {
		return 0, nil
	}
	st := sk.stack
	if st.inject.Should(fault.NetEAGAIN) {
		return 0, errno.EAGAIN
	}
	if st.inject.Should(fault.NetReset) {
		st.inject.NoteSurfaced()
		sk.reset = true
		return 0, errno.ECONNRESET
	}
	n := sk.window()
	if n <= 0 {
		return 0, errno.EAGAIN
	}
	if n > len(data) {
		n = len(data)
	}
	payload := st.getBuf(n)
	copy(payload, data[:n])
	peer.inFlight += n
	d := st.delay()
	if st.inject.Should(fault.NetDrop) {
		d += 2 * st.delay() // retransmit: reliable stream turns loss into delay
	}
	st.e.CallAfter(d, func() { st.land(peer, payload, n) })
	return n, nil
}

// land delivers one stream segment to the receive buffer.
func (st *Stack) land(peer *Socket, data []byte, n int) {
	peer.inFlight -= n
	if !peer.open {
		st.PutBuf(data)
		return // landed after receiver closed; bytes vanish with it
	}
	if peer.rbufHead > 0 && len(peer.rbuf)+n > cap(peer.rbuf) {
		// Reclaim the consumed prefix instead of growing the buffer.
		peer.rbuf = peer.rbuf[:copy(peer.rbuf, peer.rbuf[peer.rbufHead:])]
		peer.rbufHead = 0
	}
	peer.rbuf = append(peer.rbuf, data[:n]...)
	st.PutBuf(data)
	st.StreamBytes.Add(int64(n))
	if peer.finPending && peer.inFlight == 0 {
		peer.finPending = false
		peer.peerClosed = true // FIN was held back for this data
		// EOF is visible to senders too (their next send is EPIPE), so
		// wake window-waiters as well as receivers.
		peer.wakeAll()
		return
	}
	peer.wakeReady()
}

// Send writes all of data to the connection, blocking while the peer's
// receive window is full. It returns the bytes written and the first
// error; a reset or peer close mid-stream surfaces as EPIPE/ECONNRESET
// with a short count.
func (sk *Socket) Send(p *sim.Proc, data []byte) (int, error) {
	sent := 0
	for sent < len(data) {
		n, err := sk.sendStream(data[sent:])
		sent += n
		if err == errno.EAGAIN && sk.window() <= 0 {
			// Window full: wait for the receiver to drain. The receiver
			// signals our txSpace after consuming from rbuf.
			sk.txSpace.Wait(p, "stream send (window)")
			continue
		}
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// Recv reads up to len(buf) bytes from the connection, blocking until at
// least one byte, EOF (0, nil on a drained buffer after peer close), or
// an error is available.
func (sk *Socket) Recv(p *sim.Proc, buf []byte) (int, error) {
	return sk.RecvTimeout(p, buf, 0)
}

// RecvTimeout is Recv bounded by d (d <= 0 blocks indefinitely); EAGAIN
// on deadline. A concurrent Close wakes the waiter with EBADF; a peer
// reset surfaces as ECONNRESET once the buffer drains.
func (sk *Socket) RecvTimeout(p *sim.Proc, buf []byte, d sim.Time) (int, error) {
	if sk.typ != Stream {
		return 0, errno.EINVAL
	}
	var deadline sim.Time
	if d > 0 {
		deadline = sk.stack.e.Now() + d
	}
	for {
		if !sk.open {
			return 0, errno.EBADF
		}
		if sk.buffered() > 0 {
			n := copy(buf, sk.rbuf[sk.rbufHead:])
			sk.rbufHead += n
			if sk.rbufHead == len(sk.rbuf) {
				sk.rbuf = sk.rbuf[:0]
				sk.rbufHead = 0
			}
			if peer := sk.peer; peer != nil && peer.open {
				peer.txSpace.Signal() // window opened; wake a blocked sender
				peer.notifyWatchers()
			}
			return n, nil
		}
		if sk.reset {
			return 0, errno.ECONNRESET
		}
		if sk.peerClosed {
			return 0, nil // orderly EOF
		}
		if !sk.connected && !sk.listening {
			return 0, errno.ENOTCONN
		}
		if deadline == 0 {
			sk.rx.Wait(p, "stream recv")
			continue
		}
		if sk.rx.WaitDeadline(p, "stream recv (timed)", deadline) {
			return 0, errno.EAGAIN
		}
	}
}

// closeStream tears down stream state on Close: pending backlog
// connections are reset, and an established peer sees EOF (orderly
// shutdown) once its buffer drains. Called with sk.open already false.
func (sk *Socket) closeStream() {
	if sk.listening {
		for _, conn := range sk.backlog {
			// Un-accepted connections die with the listener; the remote
			// end sees the RST too.
			conn.reset = true
			if rp := conn.peer; rp != nil {
				rp.reset = true
				rp.peer = nil
				if rp.open {
					rp.wakeAll()
				}
			}
			conn.peer = nil
			conn.wakeAll()
		}
		sk.backlog = nil
		sk.listening = false
	}
	if peer := sk.peer; peer != nil {
		sk.peer = nil
		// peer.peer keeps pointing at us: the remote's sends observe
		// !open and fail with EPIPE. The FIN travels the wire like data
		// and is held back until in-flight bytes land, so a receiver
		// never sees EOF ahead of data sent before the close.
		st := sk.stack
		st.e.CallAfter(st.delay(), func() {
			if !peer.open || peer.peerClosed || peer.reset {
				return
			}
			if peer.inFlight > 0 {
				peer.finPending = true
				return
			}
			peer.peerClosed = true
			peer.wakeAll()
		})
	}
}
