package main

import "testing"

// Smoke-runs every workload builder at a tiny size and checks nothing
// failed and the repetitions agree. Fleet runs once at full size, because
// its size is fixed by the bench case it reuses, and must hit its golden
// digest; the others run twice.
func TestWorkloadBuildersSmoke(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		rep    repFunc
		reps   int
		golden string
	}{
		{"fleet", fleetRep(1), 1, g.digest(1, "fleet")},
		{"wi-pread", wiPreadRep(1, 64*512*4), 2, ""},
		{"ssd-rw", ssdRWRep(1, 4, 4), 2, ""},
		{"paper", paperRep(1, []string{"table2", "fig16", "breakdown"}), 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var digests []string
			for i := 0; i < tc.reps; i++ {
				sp := &spanLog{rep: i}
				r, err := tc.rep(sp)
				if err != nil {
					t.Fatal(err)
				}
				if r.attempted == 0 || r.calls == 0 || r.failed != 0 {
					t.Fatalf("attempted %d, calls %d, failed %d", r.attempted, r.calls, r.failed)
				}
				if r.wall() <= 0 || r.virt <= 0 || r.machines == 0 {
					t.Fatalf("wall %v, virt %v, machines %d", r.wall(), r.virt, r.machines)
				}
				if len(sp.spans) == 0 {
					t.Fatal("no spans recorded")
				}
				digests = append(digests, r.digest)
			}
			for i, wrong := range checkDigests(digests, tc.golden) {
				if wrong {
					t.Errorf("rep %d digest %s (golden %q, first %s)", i, digests[i], tc.golden, digests[0])
				}
			}
		})
	}
}

func TestSSDRWCountsEveryCall(t *testing.T) {
	r, err := ssdRWRep(3, 4, 5)(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 WGs × (5 preads + 3 pwrites on the even iterations).
	if r.calls != 32 || r.attempted != 32 {
		t.Fatalf("calls %d, attempted %d, want 32", r.calls, r.attempted)
	}
}
