package sim_test

import (
	"fmt"

	"genesys/internal/sim"
)

// A producer/consumer pair exchanging items through a bounded queue in
// virtual time.
func Example() {
	e := sim.NewEngine(1)
	q := sim.NewQueue[int](e, "items", 2)
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 1; i <= 3; i++ {
			q.Put(p, i)
			p.Sleep(10 * sim.Microsecond)
		}
	})
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			v := q.Get(p)
			fmt.Printf("got %d at t=%v\n", v, p.Now())
			p.Sleep(25 * sim.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// got 1 at t=0ns
	// got 2 at t=25.00us
	// got 3 at t=50.00us
}

// Resources model contended hardware: two tasks sharing one unit run
// back to back.
func ExampleResource() {
	e := sim.NewEngine(1)
	core := sim.NewResource(e, "core", 1)
	work := func(name string) {
		e.Spawn(name, func(p *sim.Proc) {
			core.Acquire(p, 0)
			p.Sleep(100 * sim.Microsecond)
			fmt.Printf("%s done at %v\n", name, p.Now())
			core.Release()
		})
	}
	work("a")
	work("b")
	if err := e.Run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// a done at 100.00us
	// b done at 200.00us
}
