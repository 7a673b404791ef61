package netstack

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// CheckpointState renders the stack's state as a deterministic byte
// string: counters, the ephemeral-port cursor, and every bound socket
// in port order — datagram queues, stream connection state (receive
// buffer digest, in-flight bytes, FIN/reset flags, accept backlogs by
// peer port), blocked receiver/sender counts and watcher registrations.
// Pure reads; used as a verification section by internal/ckpt
// (DESIGN.md §10).
func (s *Stack) CheckpointState() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "netstack v1\n")
	fmt.Fprintf(&b, "counters sent=%d dropped=%d conns=%d refused=%d stream_bytes=%d\n",
		s.Sent, s.Dropped, s.StreamConns, s.StreamRefused, s.StreamBytes)
	fmt.Fprintf(&b, "next_ephemeral %d\n", s.nextEphemeral)

	ports := make([]int, 0, len(s.ports))
	for p := range s.ports {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	fmt.Fprintf(&b, "ports %d\n", len(ports))
	for _, p := range ports {
		writeSocket(&b, s.ports[p])
	}
	return []byte(b.String())
}

// Listening reports whether the socket is a stream listener.
func (sk *Socket) Listening() bool { return sk.listening }

// BacklogMax returns a listener's backlog capacity (0 otherwise).
func (sk *Socket) BacklogMax() int { return sk.backlogMax }

func writeSocket(b *strings.Builder, sk *Socket) {
	fmt.Fprintf(b, "sock port=%d type=%s open=%v handler=%v rx_waiters=%d tx_waiters=%d watchers=%d\n",
		sk.port, sk.typ, sk.open, sk.handler != nil,
		sk.rx.Waiters(), sk.txSpace.Waiters(), len(sk.watchers))
	if sk.typ == Dgram {
		h := fnv.New64a()
		var bytes int
		for _, dg := range sk.rq[sk.rqHead:] {
			h.Write(dg.Data)
			bytes += len(dg.Data)
		}
		fmt.Fprintf(b, "  rq depth=%d bytes=%d digest=%016x\n", sk.queued(), bytes, h.Sum64())
		return
	}
	if sk.listening {
		fmt.Fprintf(b, "  listen backlog=%d/%d peers=[", len(sk.backlog), sk.backlogMax)
		for i, c := range sk.backlog {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(b, "%d", c.remotePort)
		}
		b.WriteString("]\n")
		return
	}
	writeStream(b, "  stream", sk)
	// Accepted connections report the listener's port without owning a
	// port-table entry, so the server side of an established stream is
	// reachable only through its client peer — render it here.
	if p := sk.peer; p != nil && p.stack.ports[p.port] != p {
		fmt.Fprintf(b, "  peer open=%v rx_waiters=%d tx_waiters=%d watchers=%d\n",
			p.open, p.rx.Waiters(), p.txSpace.Waiters(), len(p.watchers))
		writeStream(b, "  peer-stream", p)
	}
}

func writeStream(b *strings.Builder, label string, sk *Socket) {
	h := fnv.New64a()
	h.Write(sk.rbuf[sk.rbufHead:])
	fmt.Fprintf(b, "%s remote=%d connected=%v rbuf=%d digest=%016x in_flight=%d "+
		"peer_closed=%v fin_pending=%v reset=%v err=%d\n",
		label, sk.remotePort, sk.connected, sk.buffered(), h.Sum64(), sk.inFlight,
		sk.peerClosed, sk.finPending, sk.reset, int(sk.connErr))
}
