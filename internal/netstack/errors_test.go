package netstack

import (
	"testing"

	"genesys/internal/errno"
	"genesys/internal/fault"
	"genesys/internal/sim"
)

// TestSendToUnboundPortDrops: a datagram to a port nobody listens on is
// dropped in flight (UDP has no ICMP here), counted in Dropped.
func TestSendToUnboundPortDrops(t *testing.T) {
	e, st := newStack(1)
	client := st.NewSocket()
	if err := client.SendTo(4242, []byte("void")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Sent != 1 || st.Dropped != 1 {
		t.Fatalf("sent=%d dropped=%d, want 1/1", st.Sent, st.Dropped)
	}
}

// TestClosedSocketErrors: every operation on a closed socket is EBADF,
// and a datagram in flight to a socket closed before delivery is dropped.
func TestClosedSocketErrors(t *testing.T) {
	e, st := newStack(1)
	server := st.NewSocket()
	if err := server.Bind(9001); err != nil {
		t.Fatal(err)
	}
	client := st.NewSocket()
	if err := client.SendTo(9001, []byte("late")); err != nil {
		t.Fatal(err)
	}
	server.Close() // in-flight datagram now has no destination

	if err := server.Bind(9002); err != errno.EBADF {
		t.Errorf("bind on closed socket: %v, want EBADF", err)
	}
	if err := server.SendTo(9001, []byte("x")); err != errno.EBADF {
		t.Errorf("send on closed socket: %v, want EBADF", err)
	}
	e.Spawn("recv-closed", func(p *sim.Proc) {
		if _, err := server.RecvFrom(p); err != errno.EBADF {
			t.Errorf("recv on closed socket: %v, want EBADF", err)
		}
		if _, err := server.RecvFromTimeout(p, 10*sim.Microsecond); err != errno.EBADF {
			t.Errorf("timed recv on closed socket: %v, want EBADF", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 1 {
		t.Errorf("dropped=%d, want 1 (in-flight to closed socket)", st.Dropped)
	}
}

// TestOversizeDatagram: payloads over MaxDatagram fail with EMSGSIZE.
func TestOversizeDatagram(t *testing.T) {
	_, st := newStack(1)
	client := st.NewSocket()
	big := make([]byte, st.Config().MaxDatagram+1)
	if err := client.SendTo(9000, big); err != errno.EMSGSIZE {
		t.Fatalf("oversize send: %v, want EMSGSIZE", err)
	}
}

// TestRecvQueueOverflowDrops: a receiver with a tiny buffer loses the
// overflow, exactly as UDP does; the rest is deliverable.
func TestRecvQueueOverflowDrops(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.JitterMax = 0
	cfg.RecvQueueCap = 2
	st := newStackFaults(e, cfg, fault.Plan{})
	server := st.NewSocket()
	if err := server.Bind(9000); err != nil {
		t.Fatal(err)
	}
	client := st.NewSocket()
	for i := 0; i < 5; i++ {
		if err := client.SendTo(9000, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 3 {
		t.Errorf("dropped=%d, want 3 (queue cap 2)", st.Dropped)
	}
	if server.QueueLen() != 2 {
		t.Errorf("queue len=%d, want 2", server.QueueLen())
	}
}

// TestRecvFromTimeoutEAGAIN: a timed receive on a silent socket returns
// EAGAIN at the deadline, not earlier, and leaves the socket usable.
func TestRecvFromTimeoutEAGAIN(t *testing.T) {
	e, st := newStack(1)
	sk := st.NewSocket()
	if err := sk.Bind(9000); err != nil {
		t.Fatal(err)
	}
	const d = 100 * sim.Microsecond
	e.Spawn("waiter", func(p *sim.Proc) {
		if _, err := sk.RecvFromTimeout(p, d); err != errno.EAGAIN {
			t.Errorf("timed recv: %v, want EAGAIN", err)
		}
		if now := p.Now(); now < d {
			t.Errorf("EAGAIN at %v, before the %v deadline", now, d)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedFaults drives each netstack injection point at rate 1 and
// checks the advertised failure mode: eagain → EAGAIN on send, reset →
// ECONNREFUSED (counted surfaced), drop → datagram lost in flight.
func TestInjectedFaults(t *testing.T) {
	mk := func(pt fault.Point) (*sim.Engine, *Stack) {
		e := sim.NewEngine(1)
		cfg := DefaultConfig()
		cfg.JitterMax = 0
		return e, newStackFaults(e, cfg, fault.Plan{
			Name:  "test",
			Rules: []fault.Rule{{Point: pt, Rate: 1}},
		})
	}

	_, st := mk(fault.NetEAGAIN)
	if err := st.NewSocket().SendTo(9000, []byte("x")); err != errno.EAGAIN {
		t.Errorf("eagain fault: %v, want EAGAIN", err)
	}

	_, st = mk(fault.NetReset)
	if err := st.NewSocket().SendTo(9000, []byte("x")); err != errno.ECONNREFUSED {
		t.Errorf("reset fault: %v, want ECONNREFUSED", err)
	}
	if st.inject.Surfaced != 1 {
		t.Errorf("reset not counted surfaced")
	}

	e, st := mk(fault.NetDrop)
	server := st.NewSocket()
	if err := server.Bind(9000); err != nil {
		t.Fatal(err)
	}
	if err := st.NewSocket().SendTo(9000, []byte("x")); err != nil {
		t.Fatalf("send under drop fault should succeed locally: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 1 || server.QueueLen() != 0 {
		t.Errorf("dropped=%d queueLen=%d, want 1/0", st.Dropped, server.QueueLen())
	}
	if st.inject.InjectedAt(fault.NetDrop) != 1 {
		t.Errorf("drop not counted at its injection point")
	}
}
