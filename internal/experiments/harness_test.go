package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"genesys/internal/fault"
	"genesys/internal/platform"
	"genesys/internal/sim"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "test",
		Title:  "A Title",
		Note:   "line one\nline two",
		Header: []string{"col", "longer column"},
	}
	tbl.AddRow("a", "b")
	tbl.AddRow("a-very-long-cell", "c")
	out := tbl.Render()
	if !strings.Contains(out, "=== TEST: A Title ===") {
		t.Fatalf("title missing:\n%s", out)
	}
	if !strings.Contains(out, "  line one\n  line two\n") {
		t.Fatalf("note missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var header, sep string
	for i, l := range lines {
		if strings.HasPrefix(l, "col") {
			header, sep = l, lines[i+1]
			break
		}
	}
	if header == "" || !strings.HasPrefix(sep, "---") {
		t.Fatalf("header/separator missing:\n%s", out)
	}
	// Column alignment: every row at least as wide as the widest cell.
	if !strings.Contains(out, "a-very-long-cell  c") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestByIDAndIDsAgree(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := ByID(id); !ok {
			t.Fatalf("IDs() lists %q but ByID cannot resolve it", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id resolved")
	}
	if len(IDs()) < 14 {
		t.Fatalf("only %d experiments registered", len(IDs()))
	}
}

func TestSweepAndFormatters(t *testing.T) {
	o := Options{Runs: 4, BaseSeed: 10}
	g := &grid{o: o}
	seeds := each(g, nil, func(m *platform.Machine, seed int64) (float64, error) {
		if m.Cfg.Seed != seed {
			return -1, nil
		}
		return float64(seed), nil
	})
	g.run()
	if len(seeds) != 4 || seeds[0] != 10 || seeds[3] != 13 {
		t.Fatalf("seeds = %v", seeds)
	}
	s := summary(seeds)
	if s.Mean() != 11.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if got := f2(s); !strings.Contains(got, "11.50 ±") {
		t.Fatalf("f2 = %q", got)
	}
	if got := f0(s); !strings.HasPrefix(got, "12 ±") {
		t.Fatalf("f0 = %q", got)
	}
	var a, b sim.Summary
	a.Add(10)
	b.Add(5)
	if got := ratio(&a, &b); got != "2.00x" {
		t.Fatalf("ratio = %q", got)
	}
	var zero sim.Summary
	if got := ratio(&a, &zero); got != "n/a" {
		t.Fatalf("zero ratio = %q", got)
	}
	if byteSize(512) != "512 B" || byteSize(2<<10) != "2 KiB" || byteSize(3<<20) != "3 MiB" {
		t.Fatal("byteSize formatting")
	}
	if o := DefaultOptions(); o.Runs != 3 || o.BaseSeed != 1 {
		t.Fatalf("default options = %+v", o)
	}
	if (Options{}).runs() != 1 {
		t.Fatal("zero Options should run once")
	}
}

// TestFaultedFiguresReportFailures: under an armed fault profile, runs
// whose answer an injected fault spoiled are counted in the table note
// instead of panicking the driver (GPU wordcount used to slice its
// buffer with a failed read's -1, fig7 and the ablation panicked on
// their first spoiled pread, fig8 and fig13a on a wrong answer, and
// fig12 deadlocked waiting for a signal a surfaced rt_sigqueueinfo never
// queued).
func TestFaultedFiguresReportFailures(t *testing.T) {
	for _, c := range []struct {
		fn   func(Options) *Table
		seed int64
		want string
	}{
		{Fig7Granularity, 1, "Under faults all@0.05, 11 of 17 run(s) failed validation"},
		{Fig8BlockingOrdering, 2, "Under faults all@0.05, 8 of 24 run(s) failed validation"},
		{Fig10Coalescing, 1, "Under faults all@0.05, 10 of 10 run(s) failed validation"},
		{Fig12SignalSearch, 1, "Under faults all@0.05, 1 of 2 run(s) failed validation"},
		{Fig13aGrep, 1, "Under faults all@0.05, 3 of 5 run(s) failed validation"},
		{Fig13bWordcount, 1, "Under faults all@0.05, 1 of 3 run(s) failed validation"},
		{Fig14WordcountTraces, 1, "Under faults all@0.05, 1 of 2 run(s) failed validation"},
		{Ablation, 1, "Under faults all@0.05, 9 of 9 run(s) failed validation"},
	} {
		o := Options{Runs: 1, BaseSeed: c.seed, FaultProfile: "all", FaultRate: 0.05}
		if raceOn {
			o.Parallel = 1 // as in TestSmokeAll: fig7's 256 MiB machines one at a time
		}
		if tbl := c.fn(o); !strings.Contains(tbl.Note, c.want) {
			t.Errorf("%s note lacks %q:\n%s", tbl.ID, c.want, tbl.Render())
		}
	}
}

// TestGridVerdict: under a fault profile a wrong answer is counted in
// the table note and its value kept; on a fault-free machine it is a
// bug, so the grid panics with its message; and a run error panics
// under any profile.
func TestGridVerdict(t *testing.T) {
	verdict := func(o Options, errs ...error) (tbl *Table, vals []int, panicked any) {
		defer func() { panicked = recover() }()
		tbl = &Table{ID: "t"}
		o.Parallel = 1 // the points append to vals
		g := &grid{o: o, t: tbl}
		for i, err := range errs {
			g.add(1, nil, func(*platform.Machine) error {
				vals = append(vals, i)
				return err
			})
		}
		g.run()
		return tbl, vals, nil
	}
	faulted := Options{Runs: 1, BaseSeed: 1, FaultProfile: "all"}
	tbl, vals, r := verdict(faulted, nil, check(false, "counted"), check(true, "passed"))
	if r != nil || len(vals) != 3 {
		t.Fatalf("under faults: recovered %v after %d point(s), want 3 points and no panic", r, len(vals))
	}
	want := fmt.Sprintf("\nUnder faults all@%.2f, 1 of 3 run(s) failed validation; their values are included.", fault.DefaultRate)
	if tbl.Note != want {
		t.Fatalf("note %q, want %q", tbl.Note, want)
	}
	if _, _, r := verdict(Options{Runs: 1}, nil, check(false, "wrong"), check(false, "later")); r != "wrong" {
		t.Fatalf("without faults: recovered %v, want the first wrong answer's message", r)
	}
	if _, _, r := verdict(faulted, check(false, "counted"), errors.New("run failed")); r != "run failed" {
		t.Fatalf("run error under faults: recovered %v, want the error's message", r)
	}
	if tbl, _, r := verdict(Options{Runs: 1}, nil); r != nil || tbl.Note != "" {
		t.Fatalf("fault-free pass: recovered %v, note %q; want neither", r, tbl.Note)
	}
	noTable := func() (r any) {
		defer func() { r = recover() }()
		g := &grid{o: faulted}
		g.add(1, nil, func(*platform.Machine) error { return check(false, "uncounted") })
		g.run()
		return nil
	}
	if r := noTable(); r != "uncounted" {
		t.Fatalf("wrong answer under faults without a table: recovered %v, want its message", r)
	}
}
