package netstack

import (
	"bytes"
	"testing"
	"testing/quick"

	"genesys/internal/errno"
	"genesys/internal/fault"
	"genesys/internal/obs"
	"genesys/internal/sim"
)

func newStack(seed int64) (*sim.Engine, *Stack) {
	e := sim.NewEngine(seed)
	cfg := DefaultConfig()
	cfg.JitterMax = 0 // deterministic latency for exact assertions
	return e, newStackFaults(e, cfg, fault.Plan{})
}

// newStackFaults builds a stack over a fresh observer's event log and an
// injector running plan (an empty plan injects nothing).
func newStackFaults(e *sim.Engine, cfg Config, plan fault.Plan) *Stack {
	return New(e, cfg, obs.New(0).Events, fault.NewInjector(e, 1, plan, func() {}))
}

func TestSendRecv(t *testing.T) {
	e, st := newStack(1)
	server := st.NewSocket()
	if err := server.Bind(11211); err != nil {
		t.Fatal(err)
	}
	client := st.NewSocket()
	var got Datagram
	e.Spawn("server", func(p *sim.Proc) {
		dg, err := server.RecvFrom(p)
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = dg
	})
	e.Spawn("client", func(p *sim.Proc) {
		if err := client.SendTo(11211, []byte("ping")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, []byte("ping")) || got.DstPort != 11211 {
		t.Fatalf("got %+v", got)
	}
	if got.SrcPort < 32768 {
		t.Fatalf("client not auto-bound: src=%d", got.SrcPort)
	}
	if e.Now() != st.Config().DeliveryLatency {
		t.Fatalf("delivery at %v, want %v", e.Now(), st.Config().DeliveryLatency)
	}
}

func TestReplyPath(t *testing.T) {
	e, st := newStack(1)
	server := st.NewSocket()
	server.Bind(9000)
	client := st.NewSocket()
	var reply Datagram
	e.SpawnDaemon("server", func(p *sim.Proc) {
		for {
			dg, _ := server.RecvFrom(p)
			server.SendTo(dg.SrcPort, append([]byte("re:"), dg.Data...))
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		client.Bind(0)
		client.SendTo(9000, []byte("hello"))
		reply, _ = client.RecvFrom(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if string(reply.Data) != "re:hello" {
		t.Fatalf("reply = %q", reply.Data)
	}
	e.Shutdown()
}

func TestPortConflictAndClose(t *testing.T) {
	_, st := newStack(1)
	a := st.NewSocket()
	if err := a.Bind(80); err != nil {
		t.Fatal(err)
	}
	b := st.NewSocket()
	if err := b.Bind(80); err != errno.EADDRINUSE {
		t.Fatalf("double bind = %v", err)
	}
	a.Close()
	if err := b.Bind(80); err != nil {
		t.Fatalf("bind after close = %v", err)
	}
	if err := a.SendTo(80, []byte("x")); err != errno.EBADF {
		t.Fatalf("send on closed = %v", err)
	}
}

func TestDropOnFullQueueAndDeadPort(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.JitterMax = 0
	cfg.RecvQueueCap = 2
	st := newStackFaults(e, cfg, fault.Plan{})
	dst := st.NewSocket()
	dst.Bind(7)
	src := st.NewSocket()
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			src.SendTo(7, []byte{byte(i)})
		}
		src.SendTo(9999, []byte("nobody")) // unbound port
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if dst.QueueLen() != 2 {
		t.Fatalf("queue len = %d, want 2 (capacity)", dst.QueueLen())
	}
	if st.Dropped != 4 { // 3 overflow + 1 dead port
		t.Fatalf("drops = %d, want 4", st.Dropped)
	}
}

func TestMaxDatagram(t *testing.T) {
	_, st := newStack(1)
	s := st.NewSocket()
	if err := s.SendTo(1, make([]byte, st.Config().MaxDatagram+1)); err != errno.EMSGSIZE {
		t.Fatalf("oversize send = %v", err)
	}
}

// Property: datagrams are conserved — everything sent is either
// delivered into some socket queue, consumed, or counted as dropped.
func TestDatagramConservationProperty(t *testing.T) {
	f := func(seed int64, sends []uint8) bool {
		e := sim.NewEngine(seed)
		cfg := DefaultConfig()
		cfg.RecvQueueCap = 4
		st := newStackFaults(e, cfg, fault.Plan{})
		socks := make([]*Socket, 4)
		for i := range socks {
			socks[i] = st.NewSocket()
			if err := socks[i].Bind(1000 + i); err != nil {
				return false
			}
		}
		consumed := 0
		e.Spawn("sender", func(p *sim.Proc) {
			src := st.NewSocket()
			for i, b := range sends {
				// Half the targets are bound, half are dead ports.
				port := 1000 + int(b)%8
				src.SendTo(port, []byte{b})
				if i%3 == 0 {
					p.Sleep(sim.Microsecond * 40)
					// Drain one socket occasionally.
					if dg, ok := socks[int(b)%4].TryRecv(); ok {
						_ = dg
						consumed++
					}
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		e.Shutdown()
		queued := 0
		for _, s := range socks {
			queued += s.QueueLen()
		}
		total := int(st.Sent)
		accounted := queued + consumed + int(st.Dropped)
		return total == len(sends) && accounted == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadIsCopied(t *testing.T) {
	e, st := newStack(1)
	dst := st.NewSocket()
	dst.Bind(5)
	src := st.NewSocket()
	buf := []byte("original")
	e.Spawn("sender", func(p *sim.Proc) {
		src.SendTo(5, buf)
		copy(buf, "CLOBBER!")
	})
	var got []byte
	e.Spawn("receiver", func(p *sim.Proc) {
		dg, _ := dst.RecvFrom(p)
		got = dg.Data
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("payload aliased sender buffer: %q", got)
	}
}
