// Package replay implements syscall trace record and replay — Kerncap's
// extract-and-isolate idea (PAPERS.md) applied to the GPU syscall
// stream.
//
// Record mode taps the GENESYS layer (core.Recorder): every slot that
// flips to ready is captured as one trace entry — trace ID, syscall
// number, slot/wavefront/generation coordinates, arguments, payload
// buffer and the virtual instant — together with a manifest of the
// bound process's file descriptor table (the environment the calls
// reference by fd number).
//
// Replay mode re-drives a captured stream against a fresh machine's
// kernel pipeline with no workload: the environment fds are recreated
// at their recorded indexes, then each entry is injected into its
// recorded syscall-area slot at its recorded instant
// (core.InjectReady) and its doorbell interrupt re-rung
// (core.RingDoorbell). The interrupt handler, coalescing machinery,
// workqueue and OS workers process the injected slots exactly as they
// would GPU-populated ones — turning any big application run into a
// cheap, repeatable harness for coalescing/worker-count sweeps. Slots
// still busy with an earlier call (the sweep configuration is slower
// than the recording) queue per slot and re-inject as their
// predecessors complete.
package replay

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"genesys/internal/core"
	"genesys/internal/fs"
	"genesys/internal/netstack"
	"genesys/internal/oskern"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// TraceVersion is the trace file format version.
const TraceVersion = 1

// EnvFD describes one open descriptor of the recorded process — the
// environment replay must recreate so replayed calls that name fds
// resolve to equivalent objects at the same indexes.
type EnvFD struct {
	FD    int    `json:"fd"`
	Kind  string `json:"kind"` // console | file | dgram | stream-listener | stream
	Path  string `json:"path,omitempty"`
	Size  int64  `json:"size,omitempty"`
	Pos   int64  `json:"pos,omitempty"`
	Flags int    `json:"flags,omitempty"`
	Port  int    `json:"port,omitempty"`
	// Backlog is a stream listener's backlog capacity.
	Backlog int `json:"backlog,omitempty"`
}

// Entry is one recorded syscall: the GPU→kernel hand-off of a ready
// slot.
type Entry struct {
	Trace    uint64    `json:"trace"`
	NR       int       `json:"nr"`
	Name     string    `json:"name"`
	Slot     int       `json:"slot"`
	Wave     int       `json:"wave"`
	Gen      uint64    `json:"gen"`
	Blocking bool      `json:"blocking,omitempty"`
	At       int64     `json:"at_ns"`
	Args     [6]uint64 `json:"args"`
	BufLen   int       `json:"buf_len,omitempty"`
	// Buf holds the request payload, base64, only when non-empty and
	// meaningful at injection time (e.g. open's path, write's data).
	Buf string `json:"buf,omitempty"`
}

// Trace is a recorded syscall stream plus the recipe that made it.
type Trace struct {
	Version int     `json:"version"`
	Case    string  `json:"case"`
	Seed    int64   `json:"seed"`
	Env     []EnvFD `json:"env"`
	Entries []Entry `json:"entries"`
}

// PerNR returns recorded call counts by syscall number, sorted by NR.
func (t *Trace) PerNR() []NRCount {
	counts := make(map[int]int)
	for _, e := range t.Entries {
		counts[e.NR]++
	}
	return sortedNRCounts(counts, nil)
}

// Write encodes the trace to a file as JSON.
func (t *Trace) Write(path string) error {
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a trace file and decodes it with Decode.
func Load(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// MaxBufBytes bounds the summed buf_len of a trace's entries. Replay
// allocates each entry's buffer at injection, so this caps the host
// memory a trace can ask for. Recorded at seed 1, the largest sum is
// fleet's 3.3 MB over 59,261 entries, and the largest single buffer is
// 4 KiB (ssd-pread).
const MaxBufBytes = 64 << 20

// Decode parses a JSON trace and validates it: the version must match,
// every entry's instant must be non-negative (the engine cannot schedule
// into the past), every descriptor position and file size must lie in
// [0, fs.MaxFileSize], and every buffer length must be non-negative with
// the lengths summing to at most MaxBufBytes. A malformed trace thus
// fails here with an error, not with a panic inside the replay machine
// or a host allocation of gigabytes.
func Decode(b []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("replay: decode: %w", err)
	}
	if t.Version != TraceVersion {
		return nil, fmt.Errorf("replay: trace version %d, want %d", t.Version, TraceVersion)
	}
	for _, e := range t.Env {
		if e.Pos < 0 || e.Pos > fs.MaxFileSize || e.Size < 0 || e.Size > fs.MaxFileSize {
			return nil, fmt.Errorf("replay: env fd %d: pos %d, size %d out of range", e.FD, e.Pos, e.Size)
		}
	}
	var bufBytes int64
	for _, e := range t.Entries {
		if e.At < 0 || e.BufLen < 0 || int64(e.BufLen) > MaxBufBytes {
			return nil, fmt.Errorf("replay: trace %d: at_ns %d, buf_len %d out of range", e.Trace, e.At, e.BufLen)
		}
		if bufBytes += int64(e.BufLen); bufBytes > MaxBufBytes {
			return nil, fmt.Errorf("replay: trace %d: buf_len sums to %d bytes, over the %d-byte bound",
				e.Trace, bufBytes, MaxBufBytes)
		}
	}
	return &t, nil
}

// --- record ----------------------------------------------------------------

// Recorder captures the syscall stream of a live run. Attach it with
// Genesys.SetRecorder before the run; it observes ready slots and costs
// nothing in virtual time, so a recorded run stays bit-identical to an
// unrecorded one.
type Recorder struct {
	entries []Entry
	done    int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SyscallReady implements core.Recorder.
func (r *Recorder) SyscallReady(ev core.SyscallEvent) {
	e := Entry{
		Trace: ev.Trace, NR: ev.NR, Name: syscalls.Name(ev.NR),
		Slot: ev.Slot, Wave: ev.Wave, Gen: ev.Gen, Blocking: ev.Blocking,
		At: int64(ev.At), Args: ev.Args, BufLen: len(ev.Buf),
	}
	// Store payloads only when non-zero: request buffers are often
	// pre-sized output windows (read, recvfrom) whose contents are
	// meaningless at injection time; BufLen alone re-sizes those.
	if nonZero(ev.Buf) {
		e.Buf = base64.StdEncoding.EncodeToString(ev.Buf)
	}
	r.entries = append(r.entries, e)
}

// SyscallDone implements core.Recorder.
func (r *Recorder) SyscallDone(core.SyscallEvent) { r.done++ }

func nonZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return true
		}
	}
	return false
}

// Len returns the number of recorded entries.
func (r *Recorder) Len() int { return len(r.entries) }

// Finalize assembles the trace: the recorded stream plus the fd-table
// manifest of the environment the calls referenced. Capture env with
// CaptureEnv after workload setup but before the run, so descriptors
// the replayed stream itself opens are not doubled by RecreateEnv.
func (r *Recorder) Finalize(caseName string, seed int64, env []EnvFD) *Trace {
	return &Trace{Version: TraceVersion, Case: caseName, Seed: seed, Env: env, Entries: r.entries}
}

// CaptureEnv manifests the process's open descriptors.
func CaptureEnv(pr *oskern.Process) []EnvFD {
	var env []EnvFD
	pr.FDs.ForEach(func(fd int, f *fs.File) {
		e := EnvFD{FD: fd, Path: f.Path, Flags: f.Flags(), Pos: f.Pos()}
		switch {
		case f.Path == "/dev/console":
			e.Kind = "console"
		case f.Special != nil:
			sk, ok := f.Special.(*netstack.Socket)
			if !ok {
				return // unknown special descriptor: not replayable
			}
			e.Port = sk.Port()
			switch {
			case sk.Type() == netstack.Dgram:
				e.Kind = "dgram"
			case sk.Listening():
				e.Kind = "stream-listener"
				e.Backlog = sk.BacklogMax()
			default:
				e.Kind = "stream"
			}
		default:
			e.Kind = "file"
			if f.Node != nil {
				e.Size = f.Node.Size()
			}
		}
		env = append(env, e)
	})
	return env
}

// RecreateEnv rebuilds the recorded descriptor environment in pr's fd
// table at the recorded indexes. Files are recreated at their recorded
// size (zero-filled — replay reproduces control flow and I/O volume,
// not payload content); sockets are recreated bound to their recorded
// ports. Because fd allocation is deterministic lowest-free, calls the
// replayed stream itself opens then receive the same numbers they got
// during recording.
func RecreateEnv(m *platform.Machine, pr *oskern.Process, env []EnvFD) error {
	for _, e := range env {
		var f *fs.File
		switch e.Kind {
		case "console":
			continue // NewProcess wired fds 0-2 already
		case "file":
			if _, err := m.VFS.Resolve(e.Path); err != nil {
				if _, cerr := m.CreateFile(e.Path, e.Size); cerr != nil {
					return fmt.Errorf("replay: env fd %d: create %s: %w", e.FD, e.Path, cerr)
				}
			}
			var err error
			f, err = m.VFS.Open(e.Path, e.Flags&^fs.O_TRUNC)
			if err != nil {
				return fmt.Errorf("replay: env fd %d: open %s: %w", e.FD, e.Path, err)
			}
			if e.Pos > 0 {
				if _, err := f.Lseek(e.Pos, fs.SeekSet); err != nil {
					return fmt.Errorf("replay: env fd %d: seek: %w", e.FD, err)
				}
			}
		case "dgram":
			sk := m.Net.NewSocket()
			if err := sk.Bind(e.Port); err != nil {
				return fmt.Errorf("replay: env fd %d: bind %d: %w", e.FD, e.Port, err)
			}
			f = &fs.File{Special: sk, Path: e.Path}
		case "stream-listener":
			sk := m.Net.NewStreamSocket()
			if err := sk.Bind(e.Port); err != nil {
				return fmt.Errorf("replay: env fd %d: bind %d: %w", e.FD, e.Port, err)
			}
			if err := sk.Listen(e.Backlog); err != nil {
				return fmt.Errorf("replay: env fd %d: listen: %w", e.FD, err)
			}
			f = &fs.File{Special: sk, Path: e.Path}
		case "stream":
			// An established connection cannot be re-established without
			// its peer; recreate the endpoint unconnected so the fd index
			// stays occupied and calls on it fail the way a torn-down
			// connection would.
			f = &fs.File{Special: m.Net.NewStreamSocket(), Path: e.Path}
		default:
			return fmt.Errorf("replay: env fd %d: unknown kind %q", e.FD, e.Kind)
		}
		if err := pr.FDs.InstallAt(e.FD, f); err != nil {
			return fmt.Errorf("replay: env fd %d: install: %w", e.FD, err)
		}
	}
	return nil
}

// --- replay ----------------------------------------------------------------

// Options tune the replay machine — the sweep axes. Zero values keep
// the default configuration.
type Options struct {
	// Seed overrides the engine seed (0 keeps the trace's).
	Seed int64
	// Workers overrides the initial OS worker-thread count.
	Workers int
	// CoalesceWindow/CoalesceMax override the interrupt coalescing
	// knobs. CoalesceMax is only applied when > 0.
	CoalesceWindow sim.Time
	CoalesceMax    int
}

// NRCount is one syscall number's recorded/replayed call accounting.
type NRCount struct {
	NR        int    `json:"nr"`
	Name      string `json:"name"`
	Recorded  int    `json:"recorded"`
	Completed int    `json:"completed"`
}

func sortedNRCounts(recorded, completed map[int]int) []NRCount {
	nrs := make(map[int]bool)
	for nr := range recorded {
		nrs[nr] = true
	}
	for nr := range completed {
		nrs[nr] = true
	}
	keys := make([]int, 0, len(nrs))
	for nr := range nrs {
		keys = append(keys, nr)
	}
	sort.Ints(keys)
	out := make([]NRCount, 0, len(keys))
	for _, nr := range keys {
		out = append(out, NRCount{
			NR: nr, Name: syscalls.Name(nr),
			Recorded: recorded[nr], Completed: completed[nr],
		})
	}
	return out
}

// Report summarizes one replay run.
type Report struct {
	Case     string `json:"case"`
	Seed     int64  `json:"seed"`
	Entries  int    `json:"entries"`
	Injected int    `json:"injected"`
	// Deferred counts entries whose recorded slot was still busy at
	// their instant and had to wait for the predecessor to complete.
	Deferred  int       `json:"deferred"`
	Completed int       `json:"completed"`
	PerNR     []NRCount `json:"per_nr"`
	// Matches reports whether every syscall number completed exactly
	// as many calls as were recorded — the replay-fidelity gate.
	Matches bool `json:"matches"`

	// Pipeline statistics of the replay machine, for sweeps.
	DurationNS   int64   `json:"duration_ns"`
	Workers      int     `json:"workers"`
	Batches      int64   `json:"batches"`
	BatchedWaves int64   `json:"batched_waves"`
	TasksRun     int64   `json:"tasks_run"`
	MeanUS       float64 `json:"mean_us"`
	P50US        float64 `json:"p50_us"`
	P95US        float64 `json:"p95_us"`
	P99US        float64 `json:"p99_us"`
}

// Render formats the report as a human-readable table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay of %q (seed %d): %d entries, %d injected (%d deferred), %d completed\n",
		r.Case, r.Seed, r.Entries, r.Injected, r.Deferred, r.Completed)
	fmt.Fprintf(&b, "pipeline: %v virtual, %d workers, %d batches (%d waves), %d tasks\n",
		sim.Time(r.DurationNS), r.Workers, r.Batches, r.BatchedWaves, r.TasksRun)
	fmt.Fprintf(&b, "latency: mean %.2fus p50 %.2fus p95 %.2fus p99 %.2fus\n",
		r.MeanUS, r.P50US, r.P95US, r.P99US)
	fmt.Fprintf(&b, "%-16s %9s %9s\n", "syscall", "recorded", "replayed")
	for _, c := range r.PerNR {
		mark := ""
		if c.Recorded != c.Completed {
			mark = "  MISMATCH"
		}
		fmt.Fprintf(&b, "%-16s %9d %9d%s\n", c.Name, c.Recorded, c.Completed, mark)
	}
	if r.Matches {
		b.WriteString("per-syscall counts match the recording\n")
	} else {
		b.WriteString("PER-SYSCALL COUNTS DIVERGE FROM THE RECORDING\n")
	}
	return b.String()
}

// driver re-drives one trace against a machine. It implements
// core.Recorder on the replay side: completions drain the per-slot
// queues of entries that found their slot busy.
type driver struct {
	m   *platform.Machine
	g   *core.Genesys
	rec map[int]int // recorded calls per NR
	cmp map[int]int // completed calls per NR

	waiting  map[int][]Entry // slot → entries awaiting a free slot
	injected int
	deferred int
	failed   []string
}

func (d *driver) SyscallReady(core.SyscallEvent) {}

func (d *driver) SyscallDone(ev core.SyscallEvent) {
	d.cmp[ev.NR]++
	if q := d.waiting[ev.Slot]; len(q) > 0 {
		next := q[0]
		d.waiting[ev.Slot] = q[1:]
		d.inject(next)
	}
}

// inject places one entry into its slot and rings its doorbell; a busy
// slot defers the entry until the occupant completes.
func (d *driver) inject(e Entry) {
	req := syscalls.Request{NR: e.NR, Args: e.Args, Trace: e.Trace}
	if e.Buf != "" {
		buf, err := base64.StdEncoding.DecodeString(e.Buf)
		if err != nil {
			d.failed = append(d.failed, fmt.Sprintf("trace %d: bad payload: %v", e.Trace, err))
			return
		}
		req.Buf = buf
	} else if e.BufLen > 0 {
		req.Buf = make([]byte, e.BufLen)
	}
	err := d.g.InjectReady(e.Slot, e.Gen, req)
	if err == core.ErrSlotBusy {
		d.deferred++
		d.waiting[e.Slot] = append(d.waiting[e.Slot], e)
		return
	}
	if err != nil {
		d.failed = append(d.failed, fmt.Sprintf("trace %d: %v", e.Trace, err))
		return
	}
	d.injected++
	d.g.RingDoorbell(e.Slot/d.m.Cfg.GPU.SIMDWidth, e.Gen)
}

// Run replays the trace against a freshly-built machine and reports
// per-syscall fidelity plus the pipeline statistics the sweep varies.
func Run(t *Trace, opt Options) (*Report, error) {
	cfg := platform.DefaultConfig()
	cfg.Seed = t.Seed
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	if opt.Workers > 0 {
		// Pin the pool: the kernel's concurrency-managed workqueue would
		// otherwise grow past the swept count under load.
		cfg.Kernel.Workers = opt.Workers
		cfg.Kernel.MaxWorkers = opt.Workers
	}
	if opt.CoalesceWindow > 0 || opt.CoalesceMax > 0 {
		cfg.Genesys.CoalesceWindow = opt.CoalesceWindow
		if opt.CoalesceMax > 0 {
			cfg.Genesys.CoalesceMax = opt.CoalesceMax
		}
	}
	m := platform.New(cfg)
	defer m.Shutdown()
	pr := m.NewProcess("replay")
	if err := RecreateEnv(m, pr, t.Env); err != nil {
		return nil, err
	}

	d := &driver{
		m: m, g: m.Genesys,
		rec:     make(map[int]int),
		cmp:     make(map[int]int),
		waiting: make(map[int][]Entry),
	}
	for _, e := range t.Entries {
		d.rec[e.NR]++
	}
	m.Genesys.SetRecorder(d)

	// Schedule every entry at its recorded instant. Entries are already
	// in capture order ((At, seq) order of the recording), so same-slot
	// entries inject oldest-first.
	for _, e := range t.Entries {
		e := e
		m.E.CallAt(sim.Time(e.At), func() { d.inject(e) })
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if len(d.failed) > 0 {
		return nil, fmt.Errorf("replay: %d injection failure(s): %s",
			len(d.failed), strings.Join(d.failed, "; "))
	}

	rep := &Report{
		Case: t.Case, Seed: cfg.Seed,
		Entries: len(t.Entries), Injected: d.injected,
		Deferred: d.deferred,
		PerNR:    sortedNRCounts(d.rec, d.cmp),
		Matches:  true,

		DurationNS:   int64(m.E.Now()),
		Workers:      m.OS.Workers(),
		Batches:      m.Genesys.Batches,
		BatchedWaves: m.Genesys.BatchedWaves,
		TasksRun:     m.OS.TasksRun,
	}
	for _, c := range rep.PerNR {
		rep.Completed += c.Completed
		if c.Recorded != c.Completed {
			rep.Matches = false
		}
	}
	if tr := m.Genesys.Tracer(); tr.Calls() > 0 {
		rep.MeanUS = tr.TotalMean()
		q := tr.Total().Percentiles(50, 95, 99)
		rep.P50US, rep.P95US, rep.P99US = q[0], q[1], q[2]
	}
	return rep, nil
}
