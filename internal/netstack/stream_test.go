package netstack

import (
	"bytes"
	"testing"

	"genesys/internal/errno"
	"genesys/internal/fault"
	"genesys/internal/obs"
	"genesys/internal/sim"
)

func TestStreamConnectAcceptEcho(t *testing.T) {
	e, st := newStack(1)
	lst := st.NewStreamSocket()
	if err := lst.Bind(8080); err != nil {
		t.Fatal(err)
	}
	if err := lst.Listen(8); err != nil {
		t.Fatal(err)
	}
	var echoed []byte
	e.Spawn("server", func(p *sim.Proc) {
		conn, err := lst.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 64)
		n, err := conn.Recv(p, buf)
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		if _, err := conn.Send(p, buf[:n]); err != nil {
			t.Errorf("server send: %v", err)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		c := st.NewStreamSocket()
		if err := c.Connect(p, 8080); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if c.Port() < EphemeralMin {
			t.Errorf("client not auto-bound: %d", c.Port())
		}
		if _, err := c.Send(p, []byte("stream-ping")); err != nil {
			t.Errorf("client send: %v", err)
			return
		}
		buf := make([]byte, 64)
		n, err := c.Recv(p, buf)
		if err != nil {
			t.Errorf("client recv: %v", err)
			return
		}
		echoed = append([]byte(nil), buf[:n]...)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echoed, []byte("stream-ping")) {
		t.Fatalf("echoed = %q", echoed)
	}
	if st.StreamConns != 1 {
		t.Fatalf("StreamConns = %d", st.StreamConns)
	}
}

func TestStreamConnectRefused(t *testing.T) {
	e, st := newStack(1)
	var noListener, backlogFull error
	lst := st.NewStreamSocket()
	lst.Bind(8081)
	lst.Listen(1)
	e.Spawn("clients", func(p *sim.Proc) {
		c := st.NewStreamSocket()
		noListener = c.Connect(p, 9999) // nobody listening

		// Fill the single backlog slot, never accept, then overflow it.
		c1 := st.NewStreamSocket()
		if err := c1.Connect(p, 8081); err != nil {
			t.Errorf("first connect: %v", err)
		}
		c2 := st.NewStreamSocket()
		backlogFull = c2.Connect(p, 8081)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if noListener != errno.ECONNREFUSED {
		t.Fatalf("connect to dead port = %v, want ECONNREFUSED", noListener)
	}
	if backlogFull != errno.ECONNREFUSED {
		t.Fatalf("connect past backlog = %v, want ECONNREFUSED", backlogFull)
	}
	if st.StreamRefused != 2 {
		t.Fatalf("StreamRefused = %d, want 2", st.StreamRefused)
	}
}

// Flow control: a sender pushing more than StreamWindow must block until
// the receiver drains, and every byte must arrive in order.
func TestStreamFlowControl(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.JitterMax = 0
	cfg.StreamWindow = 1 << 10 // 1 KiB window
	st := newStackFaults(e, cfg, fault.Plan{})
	lst := st.NewStreamSocket()
	lst.Bind(8082)
	lst.Listen(1)
	const total = 10 << 10 // 10 KiB through a 1 KiB window
	var received []byte
	e.Spawn("server", func(p *sim.Proc) {
		conn, _ := lst.Accept(p)
		buf := make([]byte, 600)
		for len(received) < total {
			n, err := conn.Recv(p, buf)
			if err != nil || n == 0 {
				t.Errorf("server recv n=%d err=%v", n, err)
				return
			}
			received = append(received, buf[:n]...)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		c := st.NewStreamSocket()
		if err := c.Connect(p, 8082); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		data := make([]byte, total)
		for i := range data {
			data[i] = byte(i)
		}
		n, err := c.Send(p, data)
		if n != total || err != nil {
			t.Errorf("send n=%d err=%v", n, err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(received) != total {
		t.Fatalf("received %d bytes, want %d", len(received), total)
	}
	for i, b := range received {
		if b != byte(i) {
			t.Fatalf("byte %d = %d, out of order", i, b)
		}
	}
	if st.StreamBytes != total {
		t.Fatalf("StreamBytes = %d", st.StreamBytes)
	}
}

// Orderly shutdown: peer close delivers buffered data, then EOF. Sending
// into a closed peer is EPIPE.
func TestStreamEOFAndEPIPE(t *testing.T) {
	e, st := newStack(1)
	lst := st.NewStreamSocket()
	lst.Bind(8083)
	lst.Listen(1)
	var n1, n2 int
	var eofErr, pipeErr error
	e.Spawn("server", func(p *sim.Proc) {
		conn, _ := lst.Accept(p)
		conn.Send(p, []byte("bye"))
		conn.Close()
	})
	e.Spawn("client", func(p *sim.Proc) {
		c := st.NewStreamSocket()
		if err := c.Connect(p, 8083); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		buf := make([]byte, 16)
		n1, _ = c.Recv(p, buf)              // "bye"
		n2, eofErr = c.Recv(p, buf)         // EOF: (0, nil)
		_, pipeErr = c.Send(p, []byte("x")) // into closed peer
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n1 != 3 || n2 != 0 || eofErr != nil {
		t.Fatalf("recv sequence n1=%d n2=%d eof=%v, want 3, 0, nil", n1, n2, eofErr)
	}
	if pipeErr != errno.EPIPE {
		t.Fatalf("send after peer close = %v, want EPIPE", pipeErr)
	}
}

// Close must wake a peer blocked in Recv (EOF) and pending backlog
// connections see a reset when the listener dies.
func TestStreamCloseWakesPeerAndResetsBacklog(t *testing.T) {
	e, st := newStack(1)
	lst := st.NewStreamSocket()
	lst.Bind(8084)
	lst.Listen(4)
	var clientN int
	var clientErr error = errno.EIO // sentinel
	var orphanErr error
	e.Spawn("client", func(p *sim.Proc) {
		c := st.NewStreamSocket()
		if err := c.Connect(p, 8084); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		buf := make([]byte, 8)
		clientN, clientErr = c.Recv(p, buf) // blocks until server side dies
	})
	e.Spawn("orphan", func(p *sim.Proc) {
		c := st.NewStreamSocket()
		if err := c.Connect(p, 8084); err != nil {
			t.Errorf("orphan connect: %v", err)
			return
		}
		buf := make([]byte, 8)
		_, orphanErr = c.Recv(p, buf)
	})
	e.Spawn("server", func(p *sim.Proc) {
		conn, err := lst.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		p.Sleep(200 * sim.Microsecond)
		conn.Close() // wakes client with EOF
		lst.Close()  // resets the un-accepted orphan connection
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if clientN != 0 || clientErr != nil {
		t.Fatalf("client recv = (%d, %v), want orderly EOF (0, nil)", clientN, clientErr)
	}
	if orphanErr != errno.ECONNRESET {
		t.Fatalf("orphan recv = %v, want ECONNRESET", orphanErr)
	}
}

func TestStreamAcceptTimeout(t *testing.T) {
	e, st := newStack(1)
	lst := st.NewStreamSocket()
	lst.Bind(8085)
	lst.Listen(1)
	var err1 error
	var at sim.Time
	e.Spawn("server", func(p *sim.Proc) {
		_, err1 = lst.AcceptTimeout(p, 30*sim.Microsecond)
		at = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err1 != errno.EAGAIN || at != 30*sim.Microsecond {
		t.Fatalf("accept timed out with (%v at %v), want EAGAIN at 30µs", err1, at)
	}
}

// Datagram ops on stream sockets and stream ops on datagram sockets are
// type errors, not silent misbehavior.
func TestStreamTypeChecks(t *testing.T) {
	e, st := newStack(1)
	s := st.NewStreamSocket()
	d := st.NewSocket()
	if err := d.Listen(1); err != errno.EOPNOTSUPP {
		t.Fatalf("Listen on dgram = %v", err)
	}
	if err := s.SendTo(99, []byte("x")); err != errno.ENOTCONN {
		t.Fatalf("SendTo on unconnected stream = %v", err)
	}
	e.Spawn("checks", func(p *sim.Proc) {
		if _, err := s.RecvFromTimeout(p, sim.Microsecond); err != errno.EINVAL {
			t.Errorf("RecvFrom on stream = %v", err)
		}
		if err := d.Connect(p, 99); err != errno.EOPNOTSUPP {
			t.Errorf("Connect on dgram = %v", err)
		}
		buf := make([]byte, 4)
		if _, err := d.Recv(p, buf); err != errno.EINVAL {
			t.Errorf("Recv on dgram = %v", err)
		}
		if _, err := s.Recv(p, buf); err != errno.ENOTCONN {
			t.Errorf("Recv on unconnected stream = %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Loss faults on a stream are retransmission delay, not data loss.
func TestStreamLossBecomesDelay(t *testing.T) {
	e := sim.NewEngine(7)
	cfg := DefaultConfig()
	cfg.JitterMax = 0
	st := New(e, cfg, obs.New(0).Events, fault.NewInjector(e, 7, fault.Plan{Name: "drop-all",
		Rules: []fault.Rule{{Point: fault.NetDrop, Rate: 1.0}}}, func() {}))
	lst := st.NewStreamSocket()
	lst.Bind(8086)
	lst.Listen(1)
	var got []byte
	var gotAt sim.Time
	e.Spawn("server", func(p *sim.Proc) {
		conn, _ := lst.Accept(p)
		buf := make([]byte, 16)
		n, err := conn.Recv(p, buf)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		got = append([]byte(nil), buf[:n]...)
		gotAt = e.Now()
	})
	e.Spawn("client", func(p *sim.Proc) {
		c := st.NewStreamSocket()
		if err := c.Connect(p, 8086); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		sentAt := e.Now()
		if _, err := c.Send(p, []byte("survives")); err != nil {
			t.Errorf("send: %v", err)
		}
		_ = sentAt
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives" {
		t.Fatalf("data lost on stream under 100%% drop: %q", got)
	}
	// Delivery took 3 one-way delays (original + 2 retransmit penalty)
	// after the 2-delay handshake.
	want := 5 * st.Config().DeliveryLatency
	if gotAt != want {
		t.Fatalf("delivered at %v, want %v (retransmit delay)", gotAt, want)
	}
}
