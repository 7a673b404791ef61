package obs

import (
	"fmt"
	"strings"

	"genesys/internal/sim"
)

// utilBin is the initial bin width of utilization time-series tracks.
// A track's Series doubles it, summing adjacent bins, once the track
// would need sim.MaxSeriesBins bins.
const utilBin = sim.Millisecond

// UtilTrack is one virtual-time occupancy timeline (busy CPU cores,
// busy OS workers, resident GPU waves, ...). Call sites report +1/-1
// transitions; the track integrates occupancy over time, bins it into a
// Series for timeline rendering, and — when the event log is enabled —
// emits Chrome counter samples so the timeline shows up as a filled
// track under the "utilization" process in trace viewers.
//
// Tracks are pure accounting: they never advance virtual time, so
// attaching them cannot perturb a simulation.
type UtilTrack struct {
	name string
	cap  int // capacity for percent-of-capacity reporting (0 = uncapped)
	tid  int // counter-track thread ID in exported traces

	cur      int64
	last     sim.Time
	integral float64 // ∫ cur dt, in count·ns
	series   *sim.Series

	u *Util
}

// Name returns the track name.
func (t *UtilTrack) Name() string { return t.name }

// Cur returns the current occupancy.
func (t *UtilTrack) Cur() int64 { return t.cur }

func (t *UtilTrack) advance(now sim.Time) {
	if now <= t.last {
		return
	}
	dt := float64(now - t.last)
	t.integral += float64(t.cur) * dt
	if t.cur != 0 {
		t.series.AddInterval(t.last, now, float64(t.cur)*dt)
	}
	t.last = now
}

// Add applies an occupancy delta at virtual time now (typically +1 on
// entering the busy state and -1 on leaving it).
func (t *UtilTrack) Add(now sim.Time, delta int64) {
	t.advance(now)
	t.cur += delta
	if t.cur < 0 {
		t.cur = 0
	}
	if t.u.log.Enabled() {
		t.u.log.Counter("util", t.name, PIDUtil, t.tid, now, float64(t.cur))
	}
}

// Mean returns the time-averaged occupancy over [0, now].
func (t *UtilTrack) Mean(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	integral := t.integral
	if now > t.last {
		integral += float64(t.cur) * float64(now-t.last)
	}
	return integral / float64(now)
}

// MeanPct returns mean occupancy as a percentage of the track capacity
// (0 when the track is uncapped).
func (t *UtilTrack) MeanPct(now sim.Time) float64 {
	if t.cap <= 0 {
		return 0
	}
	return 100 * t.Mean(now) / float64(t.cap)
}

// sparkLevels maps a 0..1 occupancy fraction to a timeline glyph.
const sparkLevels = " .:-=+*#%@"

// timeline renders the track's binned history over [0, now] compressed
// to at most width glyphs.
func (t *UtilTrack) timeline(now sim.Time, width int) string {
	if now <= 0 || width <= 0 {
		return ""
	}
	nbins := int(now/t.series.BinWidth) + 1
	group := (nbins + width - 1) / width
	denom := float64(t.series.BinWidth) * float64(group)
	scale := float64(t.cap)
	if scale <= 0 {
		// Uncapped track: scale to its own peak mean-occupancy.
		for i := 0; i < nbins; i += group {
			var sum float64
			for j := i; j < i+group && j < nbins; j++ {
				sum += t.series.Bin(j)
			}
			if v := sum / denom; v > scale {
				scale = v
			}
		}
		if scale <= 0 {
			scale = 1
		}
	}
	var b strings.Builder
	for i := 0; i < nbins; i += group {
		var sum float64
		for j := i; j < i+group && j < nbins; j++ {
			sum += t.series.Bin(j)
		}
		frac := sum / denom / scale
		if frac < 0 {
			frac = 0
		}
		idx := int(frac * float64(len(sparkLevels)-1))
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		b.WriteByte(sparkLevels[idx])
	}
	return b.String()
}

// Util is the registry of a machine's utilization tracks, rendered at
// /sys/genesys/util and exported as Chrome counter tracks.
type Util struct {
	tracks []*UtilTrack
	log    *EventLog
}

// NewUtil returns an empty utilization registry whose tracks mirror
// counter samples into l (when it is enabled).
func NewUtil(l *EventLog) *Util { return &Util{log: l} }

// Track registers a new timeline. capacity enables percent-of-capacity
// reporting (pass 0 for uncapped tracks like queue occupancy).
func (u *Util) Track(name string, capacity int) *UtilTrack {
	t := &UtilTrack{
		name:   name,
		cap:    capacity,
		tid:    len(u.tracks),
		series: sim.NewSeries(utilBin, sim.SumBins),
		u:      u,
	}
	u.tracks = append(u.tracks, t)
	return t
}

// Tracks returns the registered tracks in registration order.
func (u *Util) Tracks() []*UtilTrack { return u.tracks }

// Render produces the /sys/genesys/util view: one line per track with
// capacity, current and mean occupancy, percent of capacity, and a
// compressed timeline of the whole run.
func (u *Util) Render(now sim.Time) string {
	bin := utilBin // the widest track bin
	for _, t := range u.tracks {
		bin = max(bin, t.series.BinWidth)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "utilization over %s (timeline bin %s):\n", now, bin)
	fmt.Fprintf(&b, "  %-22s %5s %5s %8s %7s  %s\n",
		"track", "cap", "cur", "mean", "util%", "timeline (low '.' to high '@')")
	for _, t := range u.tracks {
		pct := "-"
		if t.cap > 0 {
			pct = fmt.Sprintf("%6.1f%%", t.MeanPct(now))
		}
		capStr := "-"
		if t.cap > 0 {
			capStr = fmt.Sprintf("%d", t.cap)
		}
		fmt.Fprintf(&b, "  %-22s %5s %5d %8.2f %7s  |%s|\n",
			t.name, capStr, t.cur, t.Mean(now), pct, t.timeline(now, 48))
	}
	return b.String()
}
