package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"genesys/internal/core"
	"genesys/internal/experiments"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
	"genesys/internal/workloads"
)

// repResult is what one repetition of a workload yields. Host durations
// are raw (not normalised); everything else derives from virtual time and
// the seed, so it must repeat exactly from rep to rep.
type repResult struct {
	setup, run, finish time.Duration

	calls     int64 // GENESYS syscalls invoked (registry genesys.invocations)
	attempted int64 // simulated operations attempted
	failed    int64 // ... of which failed: aborted, wrong result, not served
	virt      sim.Time
	lat       *obs.Histogram            // syscall latency, µs
	phases    map[string]*obs.Histogram // per GENESYS phase, µs
	counts    map[string]int64          // registry snapshot
	machines  int
	digest    string // SHA-256 of the virtual-time outputs

	// setupProbes times platform.New+Shutdown; paper only, where setup
	// is spread over the machines its experiments build.
	setupProbes []time.Duration
}

func (r repResult) wall() time.Duration { return r.setup + r.run + r.finish }

// repFunc runs one repetition; sp records its stage spans when tracing.
type repFunc func(sp *spanLog) (repResult, error)

// workload is one named input set. prepare generates the inputs from the
// seed once per run, outside any timing, and returns the repetition.
type workload struct {
	name    string
	warmup  bool // run one untimed repetition first
	prepare func(seed int64) repFunc
}

// paperIDs are the paper experiments the paper workload regenerates: all
// of Tables II-IV and Figures 8-16 plus the breakdown and ablation
// studies. Figures 7 and 10 are left out: their work-item-granularity
// sweeps take half the suite's time and 1.6 GB of host memory each, and
// the wi-pread workload already measures that mechanism.
var paperIDs = []string{"table2", "table3", "table4", "fig8", "fig9", "fig11",
	"fig12", "fig13a", "fig13b", "fig14", "fig15", "fig16", "breakdown", "ablation"}

var allWorkloads = []workload{
	{name: "fleet", warmup: true, prepare: fleetRep},
	{name: "wi-pread", warmup: true, prepare: func(seed int64) repFunc {
		return wiPreadRep(seed, 32<<20)
	}},
	{name: "ssd-rw", warmup: true, prepare: func(seed int64) repFunc {
		return ssdRWRep(seed, 256, 64)
	}},
	{name: "paper", prepare: func(seed int64) repFunc {
		return paperRep(seed, paperIDs)
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setUp runs f, the set-up of one machine, with the collector off, and
// returns when it started and ended. With the collector on, whether a
// cycle started during set-up depended on where the heap stood, and
// paper's setup_s spread by 47% between runs; deferred, the collection
// runs, and is timed, in the run stage.
func setUp(f func() error) (t0, t1 time.Time, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 = time.Now()
	err = f()
	return t0, time.Now(), err
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// addMachine adds a finished machine's registry counts, syscalls,
// virtual time, latency histograms and aborted calls to r.
func addMachine(r *repResult, m *platform.Machine) {
	if r.counts == nil {
		r.counts = map[string]int64{}
		r.lat = obs.NewHistogram()
		r.phases = map[string]*obs.Histogram{}
		for _, ph := range core.Phases() {
			r.phases[ph] = obs.NewHistogram()
		}
	}
	for k, v := range m.Obs.Metrics.Snapshot() {
		r.counts[k] += v
	}
	r.calls = r.counts["genesys.invocations"]
	r.virt += m.E.Now()
	r.machines++
	tr := m.Genesys.Tracer()
	r.lat.Merge(tr.Total())
	for _, ph := range core.Phases() {
		r.phases[ph].Merge(tr.Phase(ph))
	}
	r.failed += int64(tr.Aborted())
}

// fleetSeeds is how many consecutive seeds one fleet repetition runs. A
// single seed's event count varies by up to ±25% from seed to seed, so
// one seed per repetition would make the wall time measure the seed more
// than the simulator; three average most of that out.
const fleetSeeds = 3

// fleetRep runs exactly the `genesys bench` fleet case at seeds seed,
// seed+1 and seed+2: per seed 5,000 open-loop sessions (9,000 UDP and
// 1,000 stream requests) against poll-multiplexing GPU work-groups, with
// the event ring on.
func fleetRep(seed int64) repFunc {
	return func(sp *spanLog) (repResult, error) {
		var r repResult
		start := time.Now()
		var digests [][]byte
		for i := int64(0); i < fleetSeeds; i++ {
			d, err := fleetCase(&r, seed+i, sp)
			if err != nil {
				return r, err
			}
			digests = append(digests, []byte(d))
		}
		r.attempted += r.calls
		r.digest = digestOf(digests...)
		sp.add("rep", "", start, time.Now())
		return r, nil
	}
}

// fleetCase runs the fleet bench case at one seed, adds it to r, and
// returns the digest of its BENCH and SLO bytes: at seed 1, those of the
// committed baselines/BENCH_fleet.json and baselines/SLO_fleet.json.
func fleetCase(r *repResult, seed int64, sp *spanLog) (string, error) {
	// Each case starts from a collected heap with its free memory returned
	// to the OS, as a single-machine repetition does; this is outside the
	// timed stages.
	debug.FreeOSMemory()
	var br *experiments.BenchRun
	t0, t1, err := setUp(func() (err error) {
		br, err = experiments.StartBench("fleet", seed)
		return err
	})
	if err != nil {
		return "", err
	}
	res, _, arts, err := br.Finish()
	t2 := time.Now()
	br.Close()
	t3 := time.Now()
	if err != nil {
		return "", err
	}
	r.setup += t1.Sub(t0)
	r.run += t2.Sub(t1)
	r.finish += t3.Sub(t2)
	sp.stages(t0, t1, t2, t3)
	addMachine(r, br.M)
	slo := br.M.Obs.SLO()
	if slo == nil {
		return "", fmt.Errorf("fleet seed %d: no SLO report", seed)
	}
	for _, c := range slo.Classes {
		r.attempted += c.Offered
		r.failed += c.Offered - c.Completed
	}
	parts := [][]byte{res.JSON()}
	names := make([]string, 0, len(arts))
	for n := range arts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		parts = append(parts, arts[n])
	}
	return digestOf(parts...), nil
}

// wiPreadRep is the Figure 7/10 worst case: every work-item preads its own
// 512 B of a tmpfs file with polling waits, so one proc per wavefront
// spins on its slot and proc handoff dominates. RunPread stages the file
// itself, so set-up here is platform.New alone.
func wiPreadRep(seed int64, fileSize int64) repFunc {
	return func(sp *spanLog) (repResult, error) {
		var r repResult
		cfg := platform.DefaultConfig()
		cfg.Seed = seed
		var m *platform.Machine
		t0, t1, _ := setUp(func() error {
			m = platform.New(cfg)
			return nil
		})
		res, err := workloads.RunPread(m, workloads.PreadConfig{
			FileSize: fileSize, ChunkPerWI: 512, WGSize: 64,
			Granularity: workloads.GranWorkItem, Wait: core.WaitPoll,
		})
		t2 := time.Now()
		m.Shutdown()
		t3 := time.Now()
		if err != nil {
			return r, err
		}
		r.setup, r.run, r.finish = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		sp.add("rep", "", t0, t3)
		sp.stages(t0, t1, t2, t3)
		addMachine(&r, m)
		r.attempted = r.calls
		if !res.Validated || res.Syscalls != fileSize/512 {
			r.failed = r.attempted
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			return r, err
		}
		r.digest = digestOf(resJSON, []byte(m.Obs.Metrics.Render()))
		return r, nil
	}
}

const ssdPage = 4096

// ssdFileBytes is the size of the ssd-rw input file: 16,384 pages, so
// random page picks spread over the SSD's channels and page cache.
const ssdFileBytes = 64 << 20

// ssdRWResult is the part of an ssd-rw repetition that goes into its
// digest, next to the registry.
type ssdRWResult struct {
	VirtNS    int64  `json:"virt_ns"`
	Calls     int64  `json:"calls"`
	Failed    int64  `json:"failed"`
	OutDigest string `json:"out_digest"`
}

// ssdRWRep is a kernel the benchmark defines: wgs work-groups × iters
// iterations, each a 4 KiB pread of a random page of a 64 MiB file on the
// SSD, with every even iteration also pwriting that page to /data/out. It
// runs at work-group granularity with halt-resume waits and 30 µs / 16
// interrupt coalescing, and checks every return value and every byte.
func ssdRWRep(seed int64, wgs, iters int) repFunc {
	rng := rand.New(rand.NewSource(seed))
	content := make([]byte, ssdFileBytes)
	rng.Read(content)
	picks := make([]int, wgs*iters)
	for i := range picks {
		picks[i] = rng.Intn(ssdFileBytes / ssdPage)
	}
	page := func(pg int) []byte { return content[pg*ssdPage : (pg+1)*ssdPage] }
	writes := (iters + 1) / 2
	outOff := func(wg, it int) int { return (wg*writes + it/2) * ssdPage }

	// stage writes the input file, opens both files and spawns the host
	// process that launches the kernel; bad counts failed checks.
	stage := func(m *platform.Machine, bad *int64) error {
		if err := m.WriteFile("/data/in", content); err != nil {
			return err
		}
		pr := m.NewProcess("ssd-rw")
		in, err := m.VFS.Open("/data/in", fs.O_RDONLY)
		if err != nil {
			return err
		}
		out, err := m.VFS.Open("/data/out", fs.O_CREAT|fs.O_WRONLY)
		if err != nil {
			return err
		}
		inFD, err := pr.FDs.Install(in)
		if err != nil {
			return err
		}
		outFD, err := pr.FDs.Install(out)
		if err != nil {
			return err
		}
		g := m.Genesys
		call := func(w *gpu.Wavefront, nr, fd, off int, buf []byte, kind core.Kind) {
			res, _ := g.InvokeWG(w, syscalls.Request{
				NR:   nr,
				Args: [6]uint64{uint64(fd), ssdPage, uint64(off)},
				Buf:  buf,
			}, core.Options{Blocking: true, Wait: core.WaitHaltResume,
				Ordering: core.Relaxed, Kind: kind})
			if res.Ret != ssdPage {
				*bad++
			}
		}
		m.E.Spawn("ssd-rw-host", func(p *sim.Proc) {
			k := m.GPU.Launch(p, gpu.Kernel{
				Name: "ssd-rw", WorkGroups: wgs, WGSize: 64,
				Fn: func(w *gpu.Wavefront) {
					buf := make([]byte, ssdPage)
					for it := 0; it < iters; it++ {
						pg := picks[w.WG.ID*iters+it]
						call(w, syscalls.SYS_pread64, inFD, pg*ssdPage, buf, core.Producer)
						if !bytes.Equal(buf, page(pg)) {
							*bad++
						}
						if it%2 == 0 {
							call(w, syscalls.SYS_pwrite64, outFD, outOff(w.WG.ID, it), buf, core.Consumer)
						}
					}
				},
			})
			k.Wait(p)
			g.Drain(p)
		})
		return nil
	}

	return func(sp *spanLog) (repResult, error) {
		var r repResult
		cfg := platform.DefaultConfig()
		cfg.Seed = seed
		cfg.Genesys.CoalesceWindow = 30 * sim.Microsecond
		cfg.Genesys.CoalesceMax = 16
		var m *platform.Machine
		t0, t1, err := setUp(func() error {
			m = platform.New(cfg)
			return stage(m, &r.failed)
		})
		if err != nil {
			m.Shutdown()
			return r, err
		}
		err = m.Run()
		t2 := time.Now()
		m.Shutdown()
		t3 := time.Now()
		if err != nil {
			return r, err
		}
		r.setup, r.run, r.finish = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		sp.add("rep", "", t0, t3)
		sp.stages(t0, t1, t2, t3)
		addMachine(&r, m)
		r.attempted = r.calls
		got, err := m.ReadFile("/data/out")
		if err != nil {
			return r, err
		}
		if len(got) != wgs*writes*ssdPage {
			r.failed += int64(wgs * writes)
		} else {
			for i, pg := range picks {
				wg, it := i/iters, i%iters
				if it%2 == 0 && !bytes.Equal(got[outOff(wg, it):outOff(wg, it)+ssdPage], page(pg)) {
					r.failed++
				}
			}
		}
		resJSON, err := json.Marshal(ssdRWResult{
			VirtNS: int64(r.virt), Calls: r.calls, Failed: r.failed,
			OutDigest: digestOf(got),
		})
		if err != nil {
			return r, err
		}
		r.digest = digestOf(resJSON, []byte(m.Obs.Metrics.Render()))
		return r, nil
	}
}

// setupProbesPerRep is how many platform.New+Shutdown probes the paper
// workload times per repetition for its set-up metric.
const setupProbesPerRep = 9

// paperRep regenerates the paper's evaluation tables through
// experiments.ByID, one run per data point from the workload seed. Its
// digest covers the rendered tables.
func paperRep(seed int64, ids []string) repFunc {
	return func(sp *spanLog) (repResult, error) {
		var r repResult
		for i := 0; i < setupProbesPerRep; i++ {
			// A collection first lets each probe reuse the last one's
			// pages; otherwise every probe faults in fresh memory, and the
			// host's page-fault cost, not set-up work, sets the spread.
			runtime.GC()
			t0, t1, _ := setUp(func() error {
				platform.New(platform.DefaultConfig()).Shutdown()
				return nil
			})
			r.setupProbes = append(r.setupProbes, t1.Sub(t0))
		}
		var cur *platform.Machine
		flush := func() {
			if cur != nil {
				addMachine(&r, cur)
				cur = nil
			}
		}
		o := experiments.Options{Runs: 1, BaseSeed: seed, Observe: func(m *platform.Machine) {
			flush()
			cur = m
		}}
		h := sha256.New()
		t0 := time.Now()
		for _, id := range ids {
			fn, ok := experiments.ByID(id)
			if !ok {
				return r, fmt.Errorf("paper: unknown experiment %q", id)
			}
			ts := time.Now()
			h.Write([]byte(fn(o).Render()))
			flush()
			sp.add(id, "run", ts, time.Now())
		}
		t1 := time.Now()
		r.run = t1.Sub(t0)
		r.attempted = r.calls
		r.digest = hex.EncodeToString(h.Sum(nil))
		sp.add("run", "rep", t0, t1)
		sp.add("rep", "", t0, t1)
		return r, nil
	}
}
