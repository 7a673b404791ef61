package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestSmokeAll renders every experiment once. Under the race detector
// its data points run one at a time: two of Figure 7's 256 MiB pread
// machines at once take over 5 GB instrumented, and
// TestExperimentTablesParallelEqualSequential races the pool on every
// other experiment.
func TestSmokeAll(t *testing.T) {
	o := Options{Runs: 1, BaseSeed: 1}
	if raceOn {
		o.Parallel = 1
	}
	for _, id := range IDs() {
		fn, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tbl := fn(o)
		t.Logf("\n%s", tbl.Render())
	}
}

// TestCaseStudyTablesMultiSeed pins the rendered grep and wordcount
// tables at two seeds, the only path on which an experiment's seed→corpus
// map holds more than one corpus. The digests were computed at commit
// 72b6fb0, where every variant's run rebuilt its own corpus.
func TestCaseStudyTablesMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates three case-study figures at two seeds")
	}
	o := Options{Runs: 2, BaseSeed: 1}
	for _, c := range []struct {
		fn   func(Options) *Table
		want string
	}{
		{Fig13aGrep, "5cd9e3a9d21c37689bee30111f3727c5fa95ddb9ea16b1720ad3bb9518d41866"},
		{Fig13bWordcount, "74754da63d634ed85cdaee18a761c41fd250ee15e70b227de662d7546f9330ad"},
		{Fig14WordcountTraces, "31441ae1adc63af98c0969d33f2f880aaf062f53c15f975d3855b69035e53798"},
	} {
		tbl := c.fn(o)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tbl.Render()))); got != c.want {
			t.Errorf("%s: table sha256 %s, want %s\n%s", tbl.ID, got, c.want, tbl.Render())
		}
	}
}
