package sig

import (
	"testing"

	"genesys/internal/sim"
)

func TestQueueAndWait(t *testing.T) {
	e := sim.NewEngine(1)
	st := NewState(e)
	var got []int64
	e.Spawn("handler", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			si := st.Wait(p)
			got = append(got, si.Value)
		}
	})
	e.Spawn("sender", func(p *sim.Proc) {
		for i := int64(1); i <= 3; i++ {
			p.Sleep(10 * sim.Microsecond)
			st.Queue(Siginfo{Signo: SIGUSR1, Value: i})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	if st.Delivered != 3 {
		t.Fatalf("delivered = %d", st.Delivered)
	}
}

func TestSignalsQueueWithoutHandler(t *testing.T) {
	e := sim.NewEngine(1)
	st := NewState(e)
	for i := 0; i < 5; i++ {
		st.Queue(Siginfo{Signo: SIGRTMIN, Value: int64(i)})
	}
	if st.Pending() != 5 {
		t.Fatalf("pending = %d", st.Pending())
	}
	si, ok := st.TryWait()
	if !ok || si.Value != 0 {
		t.Fatalf("TryWait = %+v, %v", si, ok)
	}
	if st.Pending() != 4 {
		t.Fatalf("pending after TryWait = %d", st.Pending())
	}
}

func TestSentAtStamped(t *testing.T) {
	e := sim.NewEngine(1)
	st := NewState(e)
	e.Spawn("sender", func(p *sim.Proc) {
		p.Sleep(42 * sim.Microsecond)
		st.Queue(Siginfo{Signo: SIGUSR2})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	si, _ := st.TryWait()
	if si.SentAt != 42*sim.Microsecond {
		t.Fatalf("SentAt = %v", si.SentAt)
	}
}
