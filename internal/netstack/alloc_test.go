package netstack

import (
	"testing"

	"genesys/internal/sim"
)

// These tests pin the per-packet delivery paths at zero steady-state
// allocations: payload buffers come from the stack's size-classed pool,
// in-flight carriers from their freelists, and receive queues reuse
// their backing arrays. Each test warms the pools first so first-touch
// slice growth is excluded from the measurement.

// TestDatagramDeliveryAllocFree: SendTo → wire delay → receive queue →
// TryRecv, with the consumer returning payloads via PutBuf (the syscall
// layer's recvfrom pattern).
func TestDatagramDeliveryAllocFree(t *testing.T) {
	e, st := newStack(1)
	server := st.NewSocket()
	if err := server.Bind(7000); err != nil {
		t.Fatal(err)
	}
	client := st.NewSocket()
	payload := make([]byte, 64)
	for i := 0; i < 32; i++ {
		if err := client.SendTo(7000, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for {
		dg, ok := server.TryRecv()
		if !ok {
			break
		}
		st.PutBuf(dg.Data)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := client.SendTo(7000, payload); err != nil {
			t.Error(err)
		}
		if err := e.Run(); err != nil {
			t.Error(err)
		}
		if dg, ok := server.TryRecv(); ok {
			st.PutBuf(dg.Data)
		}
	})
	if avg != 0 {
		t.Errorf("queued datagram delivery allocates %.2f/op, want 0", avg)
	}
}

// TestDatagramHandlerAllocFree: handler-mode delivery recycles the
// payload itself when the handler returns — the fleet client reply path.
func TestDatagramHandlerAllocFree(t *testing.T) {
	e, st := newStack(1)
	server := st.NewSocket()
	if err := server.Bind(7001); err != nil {
		t.Fatal(err)
	}
	var got int
	server.SetRecvHandler(func(dg Datagram) { got += len(dg.Data) })
	client := st.NewSocket()
	payload := make([]byte, 48)
	for i := 0; i < 32; i++ {
		if err := client.SendTo(7001, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := client.SendTo(7001, payload); err != nil {
			t.Error(err)
		}
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	if avg != 0 {
		t.Errorf("handler datagram delivery allocates %.2f/op, want 0", avg)
	}
	if got == 0 {
		t.Fatal("handler never ran")
	}
}

// TestStreamHopAllocFree: a stream send → in-flight hop → peer receive
// buffer → Recv round trip allocates only the segment's delivery closure
// once the connection is warm: the payload comes from the buffer pool and
// the receive buffer is reused.
func TestStreamHopAllocFree(t *testing.T) {
	e, st := newStack(1)
	lis := st.NewStreamSocket()
	if err := lis.Bind(8000); err != nil {
		t.Fatal(err)
	}
	if err := lis.Listen(4); err != nil {
		t.Fatal(err)
	}
	var srv *Socket
	e.Spawn("accept", func(p *sim.Proc) {
		s, err := lis.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		srv = s
	})
	cli := st.NewStreamSocket()
	e.Spawn("connect", func(p *sim.Proc) {
		if err := cli.Connect(p, 8000); err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if srv == nil {
		t.Fatal("no server socket")
	}
	msg := make([]byte, 32)
	rbuf := make([]byte, 64)
	var avg float64
	done := false
	e.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			if _, err := cli.Send(p, msg); err != nil {
				t.Errorf("warm send: %v", err)
				return
			}
			if _, err := srv.Recv(p, rbuf); err != nil {
				t.Errorf("warm recv: %v", err)
				return
			}
		}
		avg = testing.AllocsPerRun(100, func() {
			if _, err := cli.Send(p, msg); err != nil {
				t.Error(err)
			}
			if _, err := srv.Recv(p, rbuf); err != nil {
				t.Error(err)
			}
		})
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("driver did not finish")
	}
	if avg != 1 {
		t.Errorf("stream send/recv hop allocates %.2f/op, want 1 (the delivery closure)", avg)
	}
}
