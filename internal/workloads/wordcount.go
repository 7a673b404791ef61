package workloads

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"genesys/internal/core"
	"genesys/internal/cpu"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// WordcountVariant selects a Figure 13b configuration.
type WordcountVariant int

const (
	// WordcountCPU is the OpenMP host implementation: every thread
	// opens, reads and scans files.
	WordcountCPU WordcountVariant = iota
	// WordcountGPUNoSyscall is the conventional GPU offload of Figure 1
	// (left): the CPU serially reads each file, stages it to GPU memory,
	// launches a kernel and waits — no overlap anywhere.
	WordcountGPUNoSyscall
	// WordcountGENESYS processes files from GPU work-groups with
	// open/read/close through GENESYS (blocking, weak ordering —
	// §VIII-C, the original GPUfs workload).
	WordcountGENESYS
)

func (v WordcountVariant) String() string {
	switch v {
	case WordcountCPU:
		return "CPU-OpenMP"
	case WordcountGPUNoSyscall:
		return "GPU-no-syscall"
	case WordcountGENESYS:
		return "GENESYS"
	}
	return "unknown"
}

// WordcountConfig parameterizes the §VIII-C storage case study: count
// occurrences of 64 search strings across a directory of files on the
// SSD (the workload evaluated in the original GPUfs paper).
type WordcountConfig struct {
	Variant   WordcountVariant
	Files     int
	FileBytes int64
	Words     int
	// CPUScanBytesPerNS is a core's 64-pattern naive scan rate (the
	// paper's CPU version is compute-heavy; its disk never exceeds
	// ~30 MB/s).
	CPUScanBytesPerNS float64
	// GPUScanBytesPerNS is one work-group's scan rate.
	GPUScanBytesPerNS float64
	// StageBytesPerNS is the GPU-no-syscall host→GPU staging bandwidth
	// (uncached write-combined copies on pre-SVM paths).
	StageBytesPerNS float64
	// GPUWorkGroups is the GENESYS reader work-group count (drives the
	// I/O queue depth that unlocks the SSD's channels).
	GPUWorkGroups int
	CPUThreads    int
	Seed          int64
}

// DefaultWordcountConfig mirrors the evaluation: 64 strings over a
// 48 MiB corpus of 256 KiB files, read cold from the SSD.
func DefaultWordcountConfig(v WordcountVariant) WordcountConfig {
	return WordcountConfig{
		Variant:           v,
		Files:             192,
		FileBytes:         256 << 10,
		Words:             64,
		CPUScanBytesPerNS: 0.012, // 12 MB/s per core over 64 patterns
		GPUScanBytesPerNS: 4.0,
		StageBytesPerNS:   0.5,
		GPUWorkGroups:     16,
		CPUThreads:        4,
		Seed:              7,
	}
}

// WordcountResult reports one run.
type WordcountResult struct {
	Runtime sim.Time
	// Counts is the per-word occurrence count found by the run.
	Counts []int64
	// Expected is the reference count computed outside the simulation.
	Expected []int64
	// FailedReads counts files whose read returned an error (an
	// injected fault that surfaced); their bytes were never scanned.
	FailedReads int
	// MeanCPUUtil is mean CPU utilization (%) over the run (Figure 14).
	MeanCPUUtil float64
	// DiskTrace is per-bin SSD throughput in MB/s (Figure 14).
	DiskTrace []float64
	// PeakDiskMBs is the highest bin; MeanDiskMBs averages the non-idle
	// portion of the run.
	PeakDiskMBs float64
	MeanDiskMBs float64
}

// Correct reports whether every read succeeded and the counts match
// the reference.
func (r WordcountResult) Correct() bool {
	if r.FailedReads > 0 || len(r.Counts) != len(r.Expected) {
		return false
	}
	for i := range r.Counts {
		if r.Counts[i] != r.Expected[i] {
			return false
		}
	}
	return true
}

// wcWords returns the search strings ("wordNNzzq").
func wcWords(n int) []string {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("word%02dzzq", i)
	}
	return words
}

func wcFileName(i int) string { return fmt.Sprintf("/data/corpus/doc%04d", i) }

// WordcountCorpus is the read-only input of a wordcount run: the search
// strings, the per-file contents with planted words, and the reference
// counts. It is a pure function of the config's Files, FileBytes, Words
// and Seed, so every variant run at one seed can share one corpus; each
// machine's files borrow its pages.
type WordcountCorpus struct {
	key      wcKey
	words    []string
	files    [][]byte
	expected []int64
}

// wcKey is the part of a WordcountConfig that determines the corpus.
type wcKey struct {
	Files     int
	FileBytes int64
	Words     int
	Seed      int64
}

func wcKeyOf(cfg WordcountConfig) wcKey {
	return wcKey{cfg.Files, cfg.FileBytes, cfg.Words, cfg.Seed}
}

// NewWordcountCorpus builds the corpus for cfg.
func NewWordcountCorpus(cfg WordcountConfig) *WordcountCorpus {
	c := &WordcountCorpus{
		key:      wcKeyOf(cfg),
		words:    wcWords(cfg.Words),
		files:    make([][]byte, cfg.Files),
		expected: make([]int64, cfg.Words),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	const cell = 64 << 10
	for f := range c.files {
		data := make([]byte, cfg.FileBytes)
		noiseFill(rng, data)
		plants := int(cfg.FileBytes / (16 << 10))
		cells := cfg.FileBytes / cell
		for i := 0; i < plants; i++ {
			w := rng.Intn(cfg.Words)
			off := rng.Int63n(cells)*cell + 16 + rng.Int63n(cell-128)
			copy(data[off:], c.words[w])
		}
		c.files[f] = data
		countChunk(data, c.words, c.expected)
	}
	return c
}

// fits reports an error unless c was built for cfg.
func (c *WordcountCorpus) fits(cfg WordcountConfig) error {
	if c == nil {
		return errors.New("workloads: wordcount needs a corpus")
	}
	if k := wcKeyOf(cfg); c.key != k {
		return fmt.Errorf("workloads: wordcount corpus built for %+v, config wants %+v", c.key, k)
	}
	return nil
}

// countChunk accumulates per-word counts for one chunk. The noise
// alphabet is a–t, so every candidate match starts at a planted 'w'; the
// single-pass scan exploits that while remaining exact (overlapping
// plants that clobber each other are rejected by the full-pattern check).
func countChunk(chunk []byte, words []string, into []int64) {
	for i := 0; i < len(chunk); {
		j := bytes.IndexByte(chunk[i:], 'w')
		if j < 0 {
			return
		}
		pos := i + j
		if pos+9 <= len(chunk) &&
			string(chunk[pos:pos+4]) == "word" &&
			string(chunk[pos+6:pos+9]) == "zzq" {
			d1, d2 := chunk[pos+4], chunk[pos+5]
			if d1 >= '0' && d1 <= '9' && d2 >= '0' && d2 <= '9' {
				if w := int(d1-'0')*10 + int(d2-'0'); w < len(into) {
					into[w]++
				}
			}
		}
		i = pos + 1
	}
}

// RunWordcount executes one wordcount variant over c, which must have
// been built for cfg. c is only read: the machine's files borrow its
// pages. The SSD page cache is dropped first so every variant reads
// cold.
func RunWordcount(m *platform.Machine, cfg WordcountConfig, c *WordcountCorpus) (WordcountResult, error) {
	if err := c.fits(cfg); err != nil {
		return WordcountResult{}, err
	}
	if _, err := m.SSDFS.Mount(m.VFS, "/data/corpus"); err != nil {
		return WordcountResult{}, err
	}
	for i, data := range c.files {
		if err := m.WriteFile(wcFileName(i), data); err != nil {
			return WordcountResult{}, err
		}
	}
	m.SSDFS.DropCaches()
	m.SSD.ResetStats()
	pr := m.NewProcess("wordcount")
	words := c.words
	counts := make([]int64, cfg.Words)

	var runtime sim.Time
	failedReads := 0
	switch cfg.Variant {
	case WordcountCPU:
		// OpenMP: each thread claims files, reading and scanning them.
		m.E.Spawn("host", func(p *sim.Proc) {
			start := p.Now()
			done := sim.NewCond(m.E)
			active := cfg.CPUThreads
			next := 0
			for t := 0; t < cfg.CPUThreads; t++ {
				pr.Spawn(fmt.Sprintf("omp%d", t), func(tp *sim.Proc) {
					io := &fs.IOCtx{P: tp, CPU: m.CPU, Prio: cpu.PrioNormal}
					buf := make([]byte, cfg.FileBytes)
					local := make([]int64, cfg.Words)
					for {
						f := next
						if f >= cfg.Files {
							break
						}
						next++
						fh, err := m.VFS.Open(wcFileName(f), fs.O_RDONLY)
						if err != nil {
							continue
						}
						n, _ := fh.Read(io, buf)
						m.CPU.ExecChunked(tp,
							sim.Time(float64(n)/cfg.CPUScanBytesPerNS),
							sim.Millisecond, cpu.PrioNormal)
						countChunk(buf[:n], words, local)
					}
					for w := range local {
						counts[w] += local[w]
					}
					active--
					if active == 0 {
						done.Broadcast()
					}
				})
			}
			for active > 0 {
				done.Wait(p, "wordcount threads")
			}
			runtime = p.Now() - start
		})

	case WordcountGPUNoSyscall:
		// Figure 1 (left): per file, the CPU reads the data, stages it
		// into GPU memory, launches a kernel and waits.
		m.E.Spawn("host", func(p *sim.Proc) {
			start := p.Now()
			io := &fs.IOCtx{P: p, CPU: m.CPU, Prio: cpu.PrioNormal}
			buf := make([]byte, cfg.FileBytes)
			for f := 0; f < cfg.Files; f++ {
				fh, err := m.VFS.Open(wcFileName(f), fs.O_RDONLY)
				if err != nil {
					continue
				}
				n, _ := fh.Read(io, buf)
				if n == 0 {
					continue
				}
				fs.ChargeCopy(io, int64(n), cfg.StageBytesPerNS)
				k := m.GPU.Launch(p, gpu.Kernel{
					Name: "wc-file", WorkGroups: 1, WGSize: 256,
					Fn: func(w *gpu.Wavefront) {
						w.ComputeTime(sim.Time(float64(n) / cfg.GPUScanBytesPerNS))
						if w.IsLeader() {
							countChunk(buf[:n], words, counts)
						}
					},
				})
				k.Wait(p)
			}
			runtime = p.Now() - start
		})

	case WordcountGENESYS:
		// GPU work-groups sweep the directory: open, read (stateful,
		// work-group granularity, blocking + weak ordering), close. Many
		// outstanding reads drive the SSD queue depth (Figure 14).
		g := m.Genesys
		m.E.Spawn("host", func(p *sim.Proc) {
			start := p.Now()
			k := m.GPU.Launch(p, gpu.Kernel{
				Name:       "gpu-wordcount",
				WorkGroups: cfg.GPUWorkGroups,
				WGSize:     256,
				Fn: func(w *gpu.Wavefront) {
					// Only the leader's requests and count read these.
					var buf []byte
					var local []int64
					if w.IsLeader() {
						buf = make([]byte, cfg.FileBytes)
						local = make([]int64, cfg.Words)
					}
					opts := core.Options{Blocking: true, Wait: core.WaitPoll,
						Ordering: core.Relaxed, Kind: core.Producer}
					for f := w.WG.ID; f < cfg.Files; f += cfg.GPUWorkGroups {
						r, _ := g.InvokeWG(w, syscalls.Request{
							NR:   syscalls.SYS_open,
							Args: [6]uint64{fs.O_RDONLY},
							Buf:  []byte(wcFileName(f)),
						}, opts)
						fd := uint64(r.Ret)
						r, _ = g.InvokeWG(w, syscalls.Request{
							NR:   syscalls.SYS_read,
							Args: [6]uint64{fd, uint64(cfg.FileBytes)},
							Buf:  buf,
						}, opts)
						n := r.Ret
						if n < 0 {
							// The read failed with a surfaced errno:
							// nothing to scan, and the run fails.
							n = 0
							if w.IsLeader() {
								failedReads++
							}
						}
						w.ComputeTime(sim.Time(float64(n) / cfg.GPUScanBytesPerNS))
						if w.IsLeader() {
							countChunk(buf[:n], words, local)
						}
						g.InvokeWG(w, syscalls.Request{
							NR: syscalls.SYS_close, Args: [6]uint64{fd},
						}, core.Options{Blocking: true, Wait: core.WaitPoll,
							Ordering: core.Relaxed, Kind: core.Consumer})
					}
					if w.IsLeader() {
						for i := range local {
							counts[i] += local[i]
						}
					}
				},
			})
			k.Wait(p)
			g.Drain(p)
			runtime = p.Now() - start
		})
	}

	if err := m.Run(); err != nil {
		return WordcountResult{}, err
	}
	res := WordcountResult{
		Runtime:     runtime,
		Counts:      counts,
		Expected:    slices.Clone(c.expected),
		FailedReads: failedReads,
		MeanCPUUtil: m.CPU.MeanUtilization(runtime),
		DiskTrace:   m.SSD.ThroughputTrace(),
	}
	for _, v := range res.DiskTrace {
		if v > res.PeakDiskMBs {
			res.PeakDiskMBs = v
		}
	}
	if runtime > 0 {
		res.MeanDiskMBs = float64(m.SSD.BytesRead) / runtime.Seconds() / 1e6
	}
	return res, nil
}
