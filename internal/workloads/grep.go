package workloads

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"genesys/internal/core"
	"genesys/internal/cpu"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/oskern"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// GrepVariant selects a Figure 13a configuration.
type GrepVariant int

const (
	GrepCPU GrepVariant = iota
	GrepOpenMP
	GrepGPUWorkGroup
	GrepGPUWorkItemPoll
	GrepGPUWorkItemHalt
)

func (v GrepVariant) String() string {
	switch v {
	case GrepCPU:
		return "CPU"
	case GrepOpenMP:
		return "OpenMP"
	case GrepGPUWorkGroup:
		return "GENESYS-WG"
	case GrepGPUWorkItemPoll:
		return "GENESYS-WI-polling"
	case GrepGPUWorkItemHalt:
		return "GENESYS-WI-halt-resume"
	}
	return "unknown"
}

// GrepConfig parameterizes the §VIII-C grep -F -l case study: given a
// word list and a file set, report (print to the terminal) every file
// containing any of the words, stopping each file's scan at its first
// match.
type GrepConfig struct {
	Variant   GrepVariant
	Files     int
	FileBytes int
	Words     int
	// CPUScanBytesPerNS is one CPU core's multi-pattern scan rate.
	CPUScanBytesPerNS float64
	// GPUScanBytesPerNS is one work-group's aggregate scan rate.
	GPUScanBytesPerNS float64
	// CPUThreads is the OpenMP worker count.
	CPUThreads int
	Seed       int64
}

// DefaultGrepConfig returns the evaluation setup: 64 files of 256 KiB,
// 16 search words, half the files matching.
func DefaultGrepConfig(v GrepVariant) GrepConfig {
	return GrepConfig{
		Variant:           v,
		Files:             64,
		FileBytes:         256 << 10,
		Words:             16,
		CPUScanBytesPerNS: 0.8,
		GPUScanBytesPerNS: 8.0,
		CPUThreads:        4,
		Seed:              42,
	}
}

// grepChunk is the size of each read a grep variant issues.
const grepChunk = 64 << 10

// GrepResult reports one run.
type GrepResult struct {
	Runtime sim.Time
	// Found is the sorted list of matching file names, as printed to the
	// terminal.
	Found []string
	// Expected is the reference answer computed outside the simulation.
	Expected []string
}

// Correct reports whether the simulated grep found exactly the right
// files.
func (r GrepResult) Correct() bool {
	if len(r.Found) != len(r.Expected) {
		return false
	}
	for i := range r.Found {
		if r.Found[i] != r.Expected[i] {
			return false
		}
	}
	return true
}

// noiseFill fills b with lowercase noise from the alphabet a–t, drawing
// from rng exactly as the loop b[i] = 'a' + rng.Intn(20) does. The body
// is math/rand's frozen Int31n(20) inlined: take the top 31 bits of an
// Int63, reject values above the largest multiple of 20, reduce mod 20.
func noiseFill(rng *rand.Rand, b []byte) {
	const bound = 1<<31 - 1 - (1<<31)%20
	for i := range b {
		v := int32(rng.Int63() >> 32)
		for v > bound {
			v = int32(rng.Int63() >> 32)
		}
		b[i] = 'a' + byte(v%20)
	}
}

// GrepCorpus is the read-only input of a grep run: the search words, the
// file set (lowercase noise with a word planted into half the files at a
// random offset) and the reference answer. It is a pure function of the
// config's Files, FileBytes, Words and Seed, so every variant run at one
// seed can share one corpus; each machine's files borrow its pages.
type GrepCorpus struct {
	key      grepKey
	words    []string
	scan     *matcher // finds words
	names    []string // sorted
	files    map[string][]byte
	expected []string // sorted
}

// grepKey is the part of a GrepConfig that determines the corpus.
type grepKey struct {
	Files, FileBytes, Words int
	Seed                    int64
}

func grepKeyOf(cfg GrepConfig) grepKey {
	return grepKey{cfg.Files, cfg.FileBytes, cfg.Words, cfg.Seed}
}

// NewGrepCorpus builds the corpus for cfg.
func NewGrepCorpus(cfg GrepConfig) *GrepCorpus {
	c := &GrepCorpus{key: grepKeyOf(cfg), files: make(map[string][]byte)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c.words = make([]string, cfg.Words)
	for i := range c.words {
		c.words[i] = fmt.Sprintf("needle%02dxq", i)
	}
	c.scan = newMatcher(c.words)
	for f := 0; f < cfg.Files; f++ {
		name := fmt.Sprintf("file%03d.txt", f)
		data := make([]byte, cfg.FileBytes)
		noiseFill(rng, data)
		if f%2 == 0 {
			w := c.words[rng.Intn(len(c.words))]
			pos := rng.Intn(cfg.FileBytes - len(w))
			copy(data[pos:], w)
			c.expected = append(c.expected, name)
		}
		c.files[name] = data
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	sort.Strings(c.expected)
	return c
}

// fits reports an error unless c was built for cfg.
func (c *GrepCorpus) fits(cfg GrepConfig) error {
	if c == nil {
		return errors.New("workloads: grep needs a corpus")
	}
	if k := grepKeyOf(cfg); c.key != k {
		return fmt.Errorf("workloads: grep corpus built for %+v, config wants %+v", c.key, k)
	}
	return nil
}

// matcher finds the earliest offset at which any of a fixed set of words
// starts, in one left-to-right pass: exactly the minimum over the words'
// strings.Index results. It is only read after newMatcher returns, so
// concurrent runs may share it.
type matcher struct {
	long   []string  // words of two bytes or more
	maxLen int       // longest word's length
	empty  bool      // some word is empty: it matches at offset 0
	first  int       // the first byte of every word, or -1
	single [256]bool // one-byte words
	// pairs has bit a<<8|b set when some word starts with bytes a, b.
	pairs [1 << 16 / 64]uint64
}

func newMatcher(words []string) *matcher {
	m := &matcher{first: -1}
	shared := true
	for _, w := range words {
		m.maxLen = max(m.maxLen, len(w))
		switch len(w) {
		case 0:
			m.empty = true
			continue
		case 1:
			m.single[w[0]] = true
		default:
			m.long = append(m.long, w)
			p := uint16(w[0])<<8 | uint16(w[1])
			m.pairs[p/64] |= 1 << (p % 64)
		}
		if m.first < 0 {
			m.first = int(w[0])
		}
		shared = shared && int(w[0]) == m.first
	}
	if !shared {
		m.first = -1
	}
	return m
}

// index reports the offset of the first occurrence of any word in b, or
// -1. Candidates are positions whose first two bytes begin some word
// (found with bytes.IndexByte when every word shares its first byte);
// only those are compared against whole words.
func (m *matcher) index(b []byte) int {
	if m.empty {
		return 0
	}
	for i := 0; i < len(b); i++ {
		if m.first >= 0 {
			j := bytes.IndexByte(b[i:], byte(m.first))
			if j < 0 {
				return -1
			}
			i += j
		}
		if m.single[b[i]] {
			return i
		}
		if i+1 == len(b) {
			break
		}
		if p := uint16(b[i])<<8 | uint16(b[i+1]); m.pairs[p/64]&(1<<(p%64)) == 0 {
			continue
		}
		for _, w := range m.long {
			if len(w) <= len(b)-i && string(b[i:i+len(w)]) == w {
				return i
			}
		}
	}
	return -1
}

// RunGrep executes one grep variant over c, which must have been built
// for cfg. c is only read: the machine's files borrow its pages.
func RunGrep(m *platform.Machine, cfg GrepConfig, c *GrepCorpus) (GrepResult, error) {
	if err := c.fits(cfg); err != nil {
		return GrepResult{}, err
	}
	for _, n := range c.names {
		if err := m.WriteFile("/tmp/"+n, c.files[n]); err != nil {
			return GrepResult{}, err
		}
	}
	pr := m.NewProcess("grep")
	res := GrepResult{Expected: slices.Clone(c.expected)}

	switch cfg.Variant {
	case GrepCPU, GrepOpenMP:
		spawnGrepCPU(m, pr, cfg, c.scan, c.names, &res.Runtime)
	default:
		spawnGrepGPU(m, cfg, c.scan, c.names, &res.Runtime)
	}
	if err := m.Run(); err != nil {
		return GrepResult{}, err
	}
	res.Found = m.OS.Console.Lines()
	sort.Strings(res.Found)
	return res, nil
}

// spawnGrepCPU spawns the serial or OpenMP-parallel host
// implementation, which stores its runtime in *runtime.
func spawnGrepCPU(m *platform.Machine, pr *oskern.Process, cfg GrepConfig,
	scan *matcher, names []string, runtime *sim.Time) {
	threads := 1
	if cfg.Variant == GrepOpenMP {
		threads = cfg.CPUThreads
	}
	m.E.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		next := 0
		done := sim.NewCond(m.E)
		active := threads
		for t := 0; t < threads; t++ {
			pr.Spawn(fmt.Sprintf("omp%d", t), func(tp *sim.Proc) {
				io := &fs.IOCtx{P: tp, CPU: m.CPU, Prio: cpu.PrioNormal}
				buf := make([]byte, grepChunk)
				for {
					if next >= len(names) {
						break
					}
					name := names[next]
					next++
					f, err := m.VFS.Open("/tmp/"+name, fs.O_RDONLY)
					if err != nil {
						continue
					}
					carry := 0
					for {
						n, _ := f.Read(io, buf[carry:])
						if n == 0 {
							break
						}
						chunk := buf[:carry+n]
						// Multi-pattern scan cost on this core.
						m.CPU.Exec(tp, sim.Time(float64(len(chunk))/cfg.CPUScanBytesPerNS), cpu.PrioNormal)
						if scan.index(chunk) >= 0 {
							line := name + "\n"
							stdout, _ := pr.FDs.Get(1)
							stdout.Write(io, []byte(line))
							break // grep -l: first match suffices
						}
						// Keep an overlap window for cross-chunk matches.
						carry = copyTail(buf, chunk, 16)
					}
				}
				active--
				if active == 0 {
					done.Broadcast()
				}
			})
		}
		for active > 0 {
			done.Wait(p, "grep threads")
		}
		*runtime = p.Now() - start
	})
}

// copyTail moves the last keep bytes of chunk to the front of buf and
// returns the new carry length.
func copyTail(buf, chunk []byte, keep int) int {
	if len(chunk) < keep {
		keep = len(chunk)
	}
	copy(buf, chunk[len(chunk)-keep:])
	return keep
}

// spawnGrepGPU spawns the GENESYS implementations, which store their
// runtime in *runtime: one work-group per file; the group preads chunks
// and scans them in parallel; on the first match the finding work-item
// prints the file name — at work-group granularity or directly at
// work-item granularity with the configured wait mode (the paper's WG /
// WI-polling / WI-halt-resume variants).
func spawnGrepGPU(m *platform.Machine, cfg GrepConfig, scan *matcher, names []string, runtime *sim.Time) {
	g := m.Genesys
	m.E.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		k := m.GPU.Launch(p, gpu.Kernel{
			Name:       "gpu-grep",
			WorkGroups: len(names),
			WGSize:     256,
			Fn: func(w *gpu.Wavefront) {
				name := names[w.WG.ID]
				// Only the leader's requests and scan read the chunk.
				var buf []byte
				if w.IsLeader() {
					buf = make([]byte, grepChunk)
				}
				// Leader opens the file; the producer-relaxed barrier
				// (Bar2) broadcasts the descriptor to the group.
				openOpts := core.Options{Blocking: true, Wait: core.WaitPoll,
					Ordering: core.Relaxed, Kind: core.Producer}
				r, _ := g.InvokeWG(w, syscalls.Request{
					NR:   syscalls.SYS_open,
					Args: [6]uint64{fs.O_RDONLY},
					Buf:  []byte("/tmp/" + name),
				}, openOpts)
				fd := uint64(r.Ret)
				// The leader keeps the previous chunk's last keep bytes,
				// so a word straddling two chunks is found too.
				keep := max(scan.maxLen-1, 0)
				var tail []byte

				matched := false
				for off := int64(0); off < int64(cfg.FileBytes) && !matched; off += grepChunk {
					r, _ := g.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_pread64,
						Args: [6]uint64{fd, grepChunk, uint64(off)},
						Buf:  buf,
					}, openOpts)
					n := r.Ret
					if n <= 0 {
						break
					}
					// Parallel scan: the work-group covers the chunk
					// cooperatively; the leader broadcasts the match's
					// file offset (or -1) at the reduction barrier.
					w.ComputeTime(sim.Time(float64(n) / cfg.GPUScanBytesPerNS))
					at := int64(-1)
					if w.IsLeader() {
						chunk := buf[:n]
						if i := scan.index(chunk); i >= 0 {
							at = off + int64(i)
						} else if i := scan.index(append(tail, chunk[:min(len(chunk), keep)]...)); i >= 0 {
							// The window is the previous chunk's tail and
							// this chunk's head; neither holds a word
							// alone, so this one began in the tail.
							at = off - int64(len(tail)) + int64(i)
						}
						tail = append(tail[:0], chunk[len(chunk)-min(len(chunk), keep):]...)
					}
					if at = gpu.Broadcast(w, at); at < 0 {
						continue
					}
					matched = true
					line := []byte(name + "\n")
					switch cfg.Variant {
					case GrepGPUWorkGroup:
						g.InvokeWG(w, syscalls.Request{
							NR:   syscalls.SYS_write,
							Args: [6]uint64{1, uint64(len(line))},
							Buf:  line,
						}, core.Options{Blocking: true, Wait: core.WaitPoll,
							Ordering: core.Relaxed, Kind: core.Consumer})
					default:
						// Work-item invocation: the finding work-item
						// writes immediately, with no group barrier
						// (grep -l needs nothing further from this file).
						// Chunks start at multiples of the group size, so
						// this is the work-item that scanned the word's
						// first byte.
						finderWI := int(at % int64(w.WG.Run.WGSize))
						if w.ID == finderWI/64 {
							wait := core.WaitPoll
							if cfg.Variant == GrepGPUWorkItemHalt {
								wait = core.WaitHaltResume
							}
							g.InvokeEach(w, func(lane int) (syscalls.Request, bool) {
								if lane != finderWI%64 {
									return syscalls.Request{}, false
								}
								return syscalls.Request{
									NR:   syscalls.SYS_write,
									Args: [6]uint64{1, uint64(len(line))},
									Buf:  line,
								}, true
							}, core.Options{Blocking: true, Wait: wait})
						}
					}
				}
				// Leader closes the file.
				if w.IsLeader() {
					g.Invoke(w, syscalls.Request{
						NR: syscalls.SYS_close, Args: [6]uint64{fd},
					}, core.Options{Blocking: true, Wait: core.WaitPoll})
				}
			},
		})
		k.Wait(p)
		g.Drain(p)
		*runtime = p.Now() - start
	})
}
