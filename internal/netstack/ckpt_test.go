package netstack

import (
	"bytes"
	"strings"
	"testing"

	"genesys/internal/fault"
	"genesys/internal/sim"
)

// ckptScenario stages every flavor of in-flight stream/poll state the
// checkpoint section must capture: a datagram receiver blocked on an
// empty queue, a listener with parked backlog connections, a stream
// sender blocked on a full receive window, a receiver blocked with an
// armed deadline, and a poller watching sockets with an armed timeout.
// Nothing resolves by the cut instant, so all of it is live state.
func ckptScenario(t *testing.T, seed int64) (*sim.Engine, *Stack) {
	t.Helper()
	e := sim.NewEngine(seed)
	st := newStackFaults(e, DefaultConfig(), fault.Plan{})

	// Blocked datagram receiver (rx waiter, forever).
	dg := st.NewSocket()
	if err := dg.Bind(5000); err != nil {
		t.Fatal(err)
	}
	e.Spawn("dgram-rx", func(p *sim.Proc) { _, _ = dg.RecvFrom(p) })

	// Accept backlog: three clients connect, nobody accepts.
	lst := st.NewStreamSocket()
	if err := lst.Bind(6000); err != nil {
		t.Fatal(err)
	}
	if err := lst.Listen(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.Spawn("backlogged", func(p *sim.Proc) {
			c := st.NewStreamSocket()
			if err := c.Connect(p, 6000); err != nil {
				t.Errorf("backlog connect: %v", err)
			}
		})
	}

	// Receive-window waiter: the server accepts but never reads; the
	// client pushes two windows' worth and blocks on txSpace.
	win := st.NewStreamSocket()
	if err := win.Bind(7000); err != nil {
		t.Fatal(err)
	}
	if err := win.Listen(1); err != nil {
		t.Fatal(err)
	}
	e.Spawn("win-server", func(p *sim.Proc) {
		if _, err := win.Accept(p); err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		p.Sleep(10 * sim.Second) // hold the connection, never read
	})
	e.Spawn("win-client", func(p *sim.Proc) {
		c := st.NewStreamSocket()
		if err := c.Connect(p, 7000); err != nil {
			t.Errorf("win connect: %v", err)
			return
		}
		_, _ = c.Send(p, make([]byte, 2*st.Config().StreamWindow))
	})

	// Blocked receiver with an armed deadline on a connected stream.
	dl := st.NewStreamSocket()
	if err := dl.Bind(7001); err != nil {
		t.Fatal(err)
	}
	if err := dl.Listen(1); err != nil {
		t.Fatal(err)
	}
	e.Spawn("dl-server", func(p *sim.Proc) {
		conn, err := dl.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 64)
		_, _ = conn.RecvTimeout(p, buf, 5*sim.Second)
	})
	e.Spawn("dl-client", func(p *sim.Proc) {
		c := st.NewStreamSocket()
		if err := c.Connect(p, 7001); err != nil {
			t.Errorf("dl connect: %v", err)
		}
		p.Sleep(10 * sim.Second) // keep the connection up past the cut
	})

	// Poll watchers with an armed timeout, multiplexing idle sockets.
	pollA := st.NewSocket()
	if err := pollA.Bind(5001); err != nil {
		t.Fatal(err)
	}
	pollB := st.NewSocket()
	if err := pollB.Bind(5002); err != nil {
		t.Fatal(err)
	}
	e.Spawn("poller", func(p *sim.Proc) {
		pg := st.NewPoller()
		defer pg.Close()
		if err := pg.Add(pollA); err != nil {
			t.Fatal(err)
		}
		if err := pg.Add(pollB); err != nil {
			t.Fatal(err)
		}
		_, _ = pg.Wait(p, 5*sim.Second)
	})

	return e, st
}

const ckptCut = 2 * sim.Millisecond

// TestCheckpointStreamPollStateRoundTrip is the snapshot round-trip
// property for in-flight netstack state: two machines built from the
// same recipe and cut at the same instant serialize identically, and
// the serialization actually contains the blocked receivers, backlog,
// window waiters and watchers the scenario staged.
func TestCheckpointStreamPollStateRoundTrip(t *testing.T) {
	e1, st1 := ckptScenario(t, 7)
	defer e1.Shutdown()
	if err := e1.RunUntil(ckptCut); err != nil {
		t.Fatal(err)
	}
	got := st1.CheckpointState()

	for _, want := range []string{
		"sock port=5000 type=dgram open=true handler=false rx_waiters=1",
		"listen backlog=3/4",
		"tx_waiters=1", // the window-blocked sender
		"watchers=1",   // each polled socket has the poller registered
		"rbuf=65536",   // one full receive window parked at the server
	} {
		if !strings.Contains(string(got), want) {
			t.Errorf("netstack section lacks %q:\n%s", want, got)
		}
	}

	// Round-trip: a recipe-rebuilt stack arrives at the identical bytes.
	e2, st2 := ckptScenario(t, 7)
	defer e2.Shutdown()
	if err := e2.RunUntil(ckptCut); err != nil {
		t.Fatal(err)
	}
	if again := st2.CheckpointState(); !bytes.Equal(got, again) {
		t.Errorf("rebuilt stack serializes differently:\n--- first\n%s\n--- rebuilt\n%s", got, again)
	}

	// A different seed shifts delivery jitter and must be visible (the
	// section is a fingerprint, not a constant).
	e3, st3 := ckptScenario(t, 8)
	defer e3.Shutdown()
	if err := e3.RunUntil(ckptCut); err != nil {
		t.Fatal(err)
	}
	if other := st3.CheckpointState(); bytes.Equal(got, other) {
		t.Log("seed change did not move the netstack section (jitter may be sub-cut); not fatal")
	}
}

// TestCheckpointCaptureIsPure asserts serializing the stack twice at
// the same instant yields identical bytes and does not perturb the
// blocked state it captures.
func TestCheckpointCaptureIsPure(t *testing.T) {
	e, st := ckptScenario(t, 7)
	defer e.Shutdown()
	if err := e.RunUntil(ckptCut); err != nil {
		t.Fatal(err)
	}
	a := st.CheckpointState()
	b := st.CheckpointState()
	if !bytes.Equal(a, b) {
		t.Error("double capture at the same instant differs")
	}
	// The capture must not have resolved or dropped any waiter: advance
	// and recapture; the armed deadlines fire at 5s, not before.
	if err := e.RunUntil(3 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	c := st.CheckpointState()
	if !strings.Contains(string(c), "rx_waiters=1") {
		t.Errorf("blocked receiver vanished after capture:\n%s", c)
	}
}
