package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"genesys/internal/core"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
	"genesys/internal/workloads"
)

// BenchResult is the perf snapshot one bench case emits as
// BENCH_<name>.json: end-to-end latency percentiles, per-phase means,
// utilization, and event-log health. Every field derives from virtual
// time and the fixed seed, so two runs with the same seed are
// byte-identical — the property CI relies on to make the files a
// comparable perf trajectory.
type BenchResult struct {
	Name            string             `json:"name"`
	Seed            int64              `json:"seed"`
	RuntimeMS       float64            `json:"runtime_ms"`
	Calls           int                `json:"calls"`
	Aborted         int                `json:"aborted"`
	P50US           float64            `json:"p50_us"`
	P95US           float64            `json:"p95_us"`
	P99US           float64            `json:"p99_us"`
	PhaseMeanUS     map[string]float64 `json:"phase_mean_us"`
	CPUUtilPct      float64            `json:"cpu_util_pct"`
	GPUCUUtilPct    float64            `json:"gpu_cu_util_pct"`
	MeanBusyWorkers float64            `json:"mean_busy_workers"`
	EventsDropped   int64              `json:"events_dropped"`
	EventsRejected  int64              `json:"events_rejected"`
}

// JSON renders the result as indented, key-stable JSON.
func (r BenchResult) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

func round3(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1000) / 1000
}

// benchCase is one fixed workload of the deterministic bench suite.
type benchCase struct {
	name  string
	tweak func(*platform.Config)
	// setup prepares the machine and spawns the workload's host process;
	// the runner then drives the engine to quiescence.
	setup func(m *platform.Machine)
	// start, when set, replaces setup for cases whose workload needs a
	// post-run finalization step (e.g. the fleet harness distilling its
	// SLO report); the returned closure runs after engine quiescence.
	start func(m *platform.Machine, seed int64) (finish func() error, err error)
}

// benchSyscallKernel spawns the canonical blocking work-group-granularity
// pwrite workload (the breakdown experiment's kernel shape).
func benchSyscallKernel(m *platform.Machine, wgs int, wait core.WaitMode) {
	pr := m.NewProcess("bench")
	f, err := m.VFS.Open("/tmp/bench", fs.O_CREAT|fs.O_WRONLY)
	if err != nil {
		panic(err)
	}
	fd, _ := pr.FDs.Install(f)
	m.E.Spawn("bench-host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "bench", WorkGroups: wgs, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				for i := 0; i < 4; i++ {
					m.Genesys.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pwrite64,
						Args: [6]uint64{uint64(fd), 64, uint64(64 * w.WG.ID)},
						Buf:  make([]byte, 64),
					}, core.Options{Blocking: true, Wait: wait,
						Ordering: core.Relaxed, Kind: core.Consumer})
				}
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
}

const benchPreadPage = 4096

// benchCases is the fixed suite, in emission order.
var benchCases = []benchCase{
	{
		name:  "syscall-idle",
		setup: func(m *platform.Machine) { benchSyscallKernel(m, 1, core.WaitPoll) },
	},
	{
		name:  "syscall-loaded",
		setup: func(m *platform.Machine) { benchSyscallKernel(m, 64, core.WaitPoll) },
	},
	{
		name: "coalesce-64",
		tweak: func(cfg *platform.Config) {
			cfg.Genesys.CoalesceWindow = 30 * sim.Microsecond
			cfg.Genesys.CoalesceMax = 16
		},
		setup: func(m *platform.Machine) { benchSyscallKernel(m, 64, core.WaitHaltResume) },
	},
	{
		name: "ssd-pread",
		setup: func(m *platform.Machine) {
			const wgs, reads = 32, 4
			if err := m.WriteFile("/data/bench",
				make([]byte, wgs*reads*benchPreadPage)); err != nil {
				panic(err)
			}
			pr := m.NewProcess("bench")
			f, err := m.VFS.Open("/data/bench", fs.O_RDONLY)
			if err != nil {
				panic(err)
			}
			fd, _ := pr.FDs.Install(f)
			m.E.Spawn("bench-host", func(p *sim.Proc) {
				k := m.GPU.Launch(p, gpu.Kernel{
					Name: "bench-pread", WorkGroups: wgs, WGSize: 64,
					Fn: func(w *gpu.Wavefront) {
						for i := 0; i < reads; i++ {
							off := (w.WG.ID*reads + i) * benchPreadPage
							m.Genesys.InvokeWG(w, syscalls.Request{
								NR:   syscalls.SYS_pread64,
								Args: [6]uint64{uint64(fd), benchPreadPage, uint64(off)},
								Buf:  make([]byte, benchPreadPage),
							}, core.Options{Blocking: true, Wait: core.WaitHaltResume,
								Ordering: core.Relaxed, Kind: core.Producer})
						}
					},
				})
				k.Wait(p)
				m.Genesys.Drain(p)
			})
		},
	},
	{
		name: "net-loopback",
		setup: func(m *platform.Machine) {
			const wgs, rounds = 16, 4
			m.NewProcess("bench")
			m.E.Spawn("bench-host", func(p *sim.Proc) {
				k := m.GPU.Launch(p, gpu.Kernel{
					Name: "bench-net", WorkGroups: wgs, WGSize: 64,
					Fn: func(w *gpu.Wavefront) {
						if !w.IsLeader() {
							return
						}
						invoke := func(req syscalls.Request) core.Result {
							return m.Genesys.Invoke(w, req, core.Options{
								Blocking: true, Wait: core.WaitHaltResume,
								Ordering: core.Relaxed, Kind: core.Producer})
						}
						sock := invoke(syscalls.Request{NR: syscalls.SYS_socket})
						port := 9000 + w.WG.ID
						invoke(syscalls.Request{NR: syscalls.SYS_bind,
							Args: [6]uint64{uint64(sock.Ret), uint64(port)}})
						for i := 0; i < rounds; i++ {
							invoke(syscalls.Request{NR: syscalls.SYS_sendto,
								Args: [6]uint64{uint64(sock.Ret), 64, 0, 0, uint64(port)},
								Buf:  make([]byte, 64)})
							invoke(syscalls.Request{NR: syscalls.SYS_recvfrom,
								Args: [6]uint64{uint64(sock.Ret), 64},
								Buf:  make([]byte, 64)})
						}
						invoke(syscalls.Request{NR: syscalls.SYS_close,
							Args: [6]uint64{uint64(sock.Ret)}})
					},
				})
				k.Wait(p)
				m.Genesys.Drain(p)
			})
		},
	},
	{
		// The service-fleet scenario: churning clients (UDP sessions +
		// stream connections) against poll-multiplexing GPU work-groups.
		// Sized well below the 100k acceptance run so the double-run gate
		// stays cheap; the SLO report rides along as SLO_fleet.json.
		name: "fleet",
		start: func(m *platform.Machine, seed int64) (func() error, error) {
			cfg := workloads.DefaultFleetConfig(5000)
			cfg.Seed = seed
			fr, err := workloads.StartFleet(m, cfg)
			if err != nil {
				return nil, err
			}
			return func() error { fr.Finish(); return nil }, nil
		},
	},
}

// BenchNames lists the bench suite cases in emission order.
func BenchNames() []string {
	out := make([]string, len(benchCases))
	for i, c := range benchCases {
		out[i] = c.name
	}
	return out
}

func trackByName(u *obs.Util, name string) *obs.UtilTrack {
	for _, t := range u.Tracks() {
		if t.Name() == name {
			return t
		}
	}
	return nil
}

// RunBench runs one bench case deterministically and returns its
// snapshot plus any extra deterministic artifacts the case produced,
// keyed by file name (the fleet case emits its SLO report as
// SLO_fleet.json). Artifacts join BENCH_<case>.json in the byte-identity
// gate.
func RunBench(name string, seed int64) (BenchResult, map[string][]byte, error) {
	br, err := StartBench(name, seed)
	if err != nil {
		return BenchResult{}, nil, err
	}
	defer br.Close()
	res, _, artifacts, err := br.Finish()
	return res, artifacts, err
}

// BenchRun is a staged bench case whose engine loop the caller owns —
// the seam checkpoint/restore and record/replay hook into. StartBench
// builds the machine and stages the workload without running it; the
// caller may attach a recorder, run the engine partway
// (M.E.RunUntil) for a checkpoint cut, or fast-forward a restored
// snapshot, and then calls Finish to drive the engine to quiescence and
// distill the result. Close releases the machine.
type BenchRun struct {
	M    *platform.Machine
	Name string
	Seed int64

	wallStart time.Time
	finish    func() error
}

// benchCaseByName returns the named bench case, or nil.
func benchCaseByName(name string) *benchCase {
	for i := range benchCases {
		if benchCases[i].name == name {
			return &benchCases[i]
		}
	}
	return nil
}

// StartBench builds the machine for one bench case and stages its
// workload without driving the engine.
func StartBench(name string, seed int64) (*BenchRun, error) {
	bc := benchCaseByName(name)
	if bc == nil {
		return nil, fmt.Errorf("bench: unknown case %q (have %v)", name, BenchNames())
	}
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	if bc.tweak != nil {
		bc.tweak(&cfg)
	}
	m := platform.New(cfg)
	m.Obs.Events.SetEnabled(true)
	br := &BenchRun{M: m, Name: name, Seed: seed, wallStart: time.Now()}
	if bc.start != nil {
		fin, err := bc.start(m, seed)
		if err != nil {
			m.Shutdown()
			return nil, err
		}
		br.finish = fin
	} else {
		bc.setup(m)
	}
	return br, nil
}

// Close releases the machine. Safe after Finish.
func (b *BenchRun) Close() { b.M.Shutdown() }

// Finish drives the engine to quiescence (from wherever the caller left
// it — t=0 for a straight run, the cut instant for a restored one) and
// distills the deterministic result and artifacts. The second result is
// the run's host wall time since StartBench; it is the only output that
// depends on the host.
func (b *BenchRun) Finish() (BenchResult, time.Duration, map[string][]byte, error) {
	m, name, seed := b.M, b.Name, b.Seed
	if err := m.Run(); err != nil {
		return BenchResult{}, 0, nil, err
	}
	if b.finish != nil {
		if err := b.finish(); err != nil {
			return BenchResult{}, 0, nil, err
		}
	}
	wall := time.Since(b.wallStart)
	now := m.E.Now()
	tr := m.Genesys.Tracer()
	q := tr.Total().Percentiles(50, 95, 99)
	phases := make(map[string]float64, 5)
	for _, ph := range core.Phases() {
		phases[ph] = round3(tr.Phase(ph).Mean())
	}
	res := BenchResult{
		Name:            name,
		Seed:            seed,
		RuntimeMS:       round3(now.Milli()),
		Calls:           tr.Calls(),
		Aborted:         tr.Aborted(),
		P50US:           round3(q[0]),
		P95US:           round3(q[1]),
		P99US:           round3(q[2]),
		PhaseMeanUS:     phases,
		CPUUtilPct:      round3(m.CPU.MeanUtilization(now)),
		GPUCUUtilPct:    round3(trackByName(m.Obs.Util, "gpu.busy_cus").MeanPct(now)),
		MeanBusyWorkers: round3(trackByName(m.Obs.Util, "oskern.busy_workers").Mean(now)),
		EventsDropped:   m.Obs.Events.Dropped(),
		EventsRejected:  m.Obs.Events.Rejected(),
	}
	var artifacts map[string][]byte
	if slo := m.Obs.SLO(); slo != nil {
		artifacts = map[string][]byte{"SLO_" + name + ".json": slo.JSON()}
	}
	// Flight-recorder bundles ride along as deterministic artifacts.
	// Clean bench runs are expected to produce none — a bundle appearing
	// here means a detector fired, and the double-run gate holds its
	// bytes to the same identity bar as the BENCH snapshot.
	for _, bun := range m.Obs.Flight.Bundles() {
		if artifacts == nil {
			artifacts = map[string][]byte{}
		}
		artifacts[fmt.Sprintf("ANOMALY_%s_%s", name, bun.Name()[len("ANOMALY_"):])] = bun.JSON()
	}
	return res, wall, artifacts, nil
}
