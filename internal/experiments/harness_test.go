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
