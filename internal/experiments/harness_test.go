package experiments

import (
	"strings"
	"testing"

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
	seeds := each(g, nil, func(m *platform.Machine, seed int64) float64 {
		if m.Cfg.Seed != seed {
			return -1
		}
		return float64(seed)
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
// buffer with a failed read's -1, and fig7 and the ablation panicked on
// their first spoiled pread).
func TestFaultedFiguresReportFailures(t *testing.T) {
	o := Options{Runs: 1, BaseSeed: 1, FaultProfile: "all", FaultRate: 0.05}
	if raceOn {
		o.Parallel = 1 // as in TestSmokeAll: fig7's 256 MiB machines one at a time
	}
	for _, c := range []struct {
		fn   func(Options) *Table
		want string
	}{
		{Fig7Granularity, "Under faults all@0.05, 11 of 17 run(s) failed validation"},
		{Fig10Coalescing, "Under faults all@0.05, 10 of 10 run(s) failed validation"},
		{Fig13bWordcount, "Under faults all@0.05, 1 of 3 run(s) failed validation"},
		{Fig14WordcountTraces, "Under faults all@0.05, 1 of 2 run(s) failed validation"},
		{Ablation, "Under faults all@0.05, 9 of 9 run(s) failed validation"},
	} {
		if tbl := c.fn(o); !strings.Contains(tbl.Note, c.want) {
			t.Errorf("%s note lacks %q:\n%s", tbl.ID, c.want, tbl.Render())
		}
	}
}

// TestValidatorPanicsWithoutFaults: a wrong answer on a fault-free
// machine is a bug, so the check panics rather than counting it.
func TestValidatorPanicsWithoutFaults(t *testing.T) {
	v := &validator{o: Options{FaultProfile: "all"}}
	v.check(false, "counted")
	if v.failed.Load() != 1 {
		t.Fatalf("failed = %d under faults, want 1", v.failed.Load())
	}
	defer func() {
		if r := recover(); r != "wrong" {
			t.Fatalf("recovered %v, want the check's message", r)
		}
	}()
	(&validator{}).check(false, "wrong")
}
