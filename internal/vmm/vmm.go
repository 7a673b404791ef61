// Package vmm models per-process virtual memory: VMAs created by mmap,
// demand paging against a finite physical-page pool, swap traffic when
// the pool is exhausted, and madvise(MADV_DONTNEED) releasing pages back
// to the pool.
//
// This is the substrate for the paper's miniAMR case study (§VIII-A,
// Figure 11): a GPU dataset slightly larger than physical memory swaps so
// heavily that the GPU driver's watchdog kills the application, unless
// the GPU itself calls madvise to return memory it no longer needs.
package vmm

import (
	"errors"
	"fmt"

	"genesys/internal/errno"
	"genesys/internal/sim"
)

// Madvise advice values (Linux).
const (
	MADV_NORMAL   = 0
	MADV_WILLNEED = 3
	MADV_DONTNEED = 4
)

// ErrGPUTimeout reports that servicing page faults for a single GPU
// access batch exceeded the driver watchdog, which terminates the
// offending application — the fate of the paper's madvise-less baseline.
var ErrGPUTimeout = errors.New("vmm: GPU watchdog timeout while servicing page faults")

// Config holds paging parameters.
type Config struct {
	PageSize    int64
	PhysPages   int64    // physical pages available to this workload
	MinorFault  sim.Time // zero-fill fault service time
	SwapIn      sim.Time // major fault: read one page from swap
	SwapOut     sim.Time // evict one dirty page to swap
	ZapPage     sim.Time // madvise(DONTNEED) cost per present page
	GPUWatchdog sim.Time // max fault latency one GPU access batch tolerates
}

// DefaultConfig returns 4 KiB pages, a 4 GiB pool, SSD-class swap costs
// and a 500 ms GPU watchdog.
func DefaultConfig() Config {
	return Config{
		PageSize:    4096,
		PhysPages:   (4 << 30) / 4096,
		MinorFault:  2 * sim.Microsecond,
		SwapIn:      180 * sim.Microsecond,
		SwapOut:     180 * sim.Microsecond,
		ZapPage:     500 * sim.Nanosecond,
		GPUWatchdog: 500 * sim.Millisecond,
	}
}

// Pool is the machine-wide physical page pool.
type Pool struct {
	Total int64
	used  int64
}

// Used returns the number of allocated pages.
func (p *Pool) Used() int64 { return p.used }

// Free returns the number of free pages.
func (p *Pool) Free() int64 { return p.Total - p.used }

type pageID struct {
	vma *VMA
	idx int64
}

// VMA is one mapped region.
type VMA struct {
	Start  uint64
	Length int64

	present []bool
	swapped []bool // page went to swap at least once → next fault is major

	// Device is the device memory backing the mapping (e.g. the
	// framebuffer); nil for anonymous memory. Device mappings are not
	// demand-paged.
	Device []byte
}

// End returns the first address past the mapping.
func (v *VMA) End() uint64 { return v.Start + uint64(v.Length) }

func (v *VMA) pages(pageSize int64) int64 {
	return (v.Length + pageSize - 1) / pageSize
}

// AddressSpace is one process's memory map.
type AddressSpace struct {
	e    *sim.Engine
	cfg  Config
	pool *Pool

	vmas     []*VMA
	nextAddr uint64

	rssPages    int64
	maxRSSPages int64

	// residency FIFO for eviction
	resident []pageID

	MinorFaults int64
	MajorFaults int64
	SwapOuts    int64

	rssTrace *sim.Series // max RSS bytes seen per bin
}

// New returns an address space drawing pages from pool.
func New(e *sim.Engine, cfg Config, pool *Pool) *AddressSpace {
	if cfg.PageSize <= 0 {
		panic("vmm: invalid page size")
	}
	return &AddressSpace{
		e:        e,
		cfg:      cfg,
		pool:     pool,
		nextAddr: 0x7f00_0000_0000,
		rssTrace: sim.NewSeries(50*sim.Millisecond, sim.MaxBins),
	}
}

// Config returns the paging parameters.
func (as *AddressSpace) Config() Config { return as.cfg }

// Pool returns the backing physical pool.
func (as *AddressSpace) Pool() *Pool { return as.pool }

// RSSBytes returns the current resident set size in bytes.
func (as *AddressSpace) RSSBytes() int64 { return as.rssPages * as.cfg.PageSize }

// MaxRSSBytes returns the high-water-mark resident set size in bytes.
func (as *AddressSpace) MaxRSSBytes() int64 { return as.maxRSSPages * as.cfg.PageSize }

// RSSTrace returns the per-bin peak RSS in bytes (Figure 11's y-axis).
func (as *AddressSpace) RSSTrace() ([]float64, sim.Time) {
	return as.rssTrace.Bins(), as.rssTrace.BinWidth
}

func (as *AddressSpace) noteRSS() {
	if as.rssPages > as.maxRSSPages {
		as.maxRSSPages = as.rssPages
	}
	if as.rssPages > 0 { // a zero RSS raises no peak, so it adds no bin
		as.rssTrace.Add(as.e.Now(), float64(as.RSSBytes()))
	}
}

// Mmap creates an anonymous mapping of length bytes and returns its
// address. No physical pages are allocated until the memory is touched.
func (as *AddressSpace) Mmap(length int64) (uint64, error) {
	return as.mmap(length, nil)
}

// MmapDevice maps device memory (e.g. the framebuffer).
func (as *AddressSpace) MmapDevice(dev []byte) (uint64, error) {
	if dev == nil {
		return 0, errno.ENODEV
	}
	return as.mmap(int64(len(dev)), dev)
}

func (as *AddressSpace) mmap(length int64, dev []byte) (uint64, error) {
	if length <= 0 {
		return 0, errno.EINVAL
	}
	pageSize := as.cfg.PageSize
	length = (length + pageSize - 1) / pageSize * pageSize
	v := &VMA{Start: as.nextAddr, Length: length, Device: dev}
	if dev == nil {
		n := v.pages(pageSize)
		v.present = make([]bool, n)
		v.swapped = make([]bool, n)
	}
	as.nextAddr += uint64(length) + uint64(pageSize) // guard page
	as.vmas = append(as.vmas, v)
	return v.Start, nil
}

// find returns the VMA containing addr.
func (as *AddressSpace) find(addr uint64) (*VMA, error) {
	for _, v := range as.vmas {
		if addr >= v.Start && addr < v.End() {
			return v, nil
		}
	}
	return nil, errno.EFAULT
}

// FindVMA is the exported lookup used by the syscall layer (e.g. to find
// a device mapping for framebuffer writes).
func (as *AddressSpace) FindVMA(addr uint64) (*VMA, error) { return as.find(addr) }

// Munmap removes the mapping exactly covering [addr, addr+length).
func (as *AddressSpace) Munmap(p *sim.Proc, addr uint64, length int64) error {
	for i, v := range as.vmas {
		if v.Start == addr {
			if length > 0 && (length+as.cfg.PageSize-1)/as.cfg.PageSize*as.cfg.PageSize != v.Length {
				return errno.EINVAL
			}
			freed := as.releaseRange(p, v, 0, v.pages(as.cfg.PageSize), false)
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			_ = freed
			return nil
		}
	}
	return errno.EINVAL
}

// Madvise applies advice to [addr, addr+length). MADV_DONTNEED releases
// present pages back to the pool; the data is discarded, so the next
// touch is a zero-fill minor fault.
func (as *AddressSpace) Madvise(p *sim.Proc, addr uint64, length int64, advice int) error {
	switch advice {
	case MADV_NORMAL, MADV_WILLNEED:
		return nil
	case MADV_DONTNEED:
	default:
		return errno.EINVAL
	}
	v, err := as.find(addr)
	if err != nil {
		return err
	}
	if v.Device != nil {
		return errno.EINVAL
	}
	ps := as.cfg.PageSize
	first := int64(addr-v.Start) / ps
	last := (int64(addr-v.Start) + length - 1) / ps
	if last >= v.pages(ps) {
		last = v.pages(ps) - 1
	}
	freed := as.releaseRange(p, v, first, last+1, true)
	if p != nil && freed > 0 {
		p.Sleep(sim.Time(freed) * as.cfg.ZapPage)
	}
	return nil
}

// releaseRange drops present pages [first, lastExcl) of v, returning the
// count released. When resetSwap is set the pages also forget their swap
// history (DONTNEED discards content).
func (as *AddressSpace) releaseRange(p *sim.Proc, v *VMA, first, lastExcl int64, resetSwap bool) int64 {
	if v.Device != nil {
		return 0
	}
	var freed int64
	for i := first; i < lastExcl; i++ {
		if v.present[i] {
			v.present[i] = false
			freed++
		}
		if resetSwap {
			v.swapped[i] = false
		}
	}
	if freed > 0 {
		as.pool.used -= freed
		as.rssPages -= freed
		as.compactResident()
		as.noteRSS()
	}
	return freed
}

// compactResident removes no-longer-present pages from the eviction FIFO.
func (as *AddressSpace) compactResident() {
	out := as.resident[:0]
	for _, pg := range as.resident {
		if pg.vma.present != nil && pg.idx < int64(len(pg.vma.present)) && pg.vma.present[pg.idx] {
			out = append(out, pg)
		}
	}
	as.resident = out
}

// Touch simulates accesses to [addr, addr+length): absent pages fault in,
// evicting other pages if the pool is full. Costs are charged to p in one
// batch. When gpu is set and the accumulated fault latency of this batch
// exceeds the watchdog, ErrGPUTimeout is returned (after charging the
// time spent).
func (as *AddressSpace) Touch(p *sim.Proc, addr uint64, length int64, gpu bool) error {
	v, err := as.find(addr)
	if err != nil {
		return err
	}
	if addr+uint64(length) > v.End() {
		return errno.EFAULT
	}
	if v.Device != nil {
		return nil // device memory is always resident
	}
	ps := as.cfg.PageSize
	first := int64(addr-v.Start) / ps
	last := (int64(addr-v.Start) + length - 1) / ps

	var cost sim.Time
	var minor, major, evict int64
	for i := first; i <= last; i++ {
		if v.present[i] {
			continue
		}
		// Need a physical page: evict if pool exhausted.
		if as.pool.Free() <= 0 {
			if !as.evictOne() {
				return errno.ENOMEM
			}
			evict++
			cost += as.cfg.SwapOut
		}
		v.present[i] = true
		as.pool.used++
		as.rssPages++
		as.resident = append(as.resident, pageID{vma: v, idx: i})
		if v.swapped[i] {
			major++
			cost += as.cfg.SwapIn
		} else {
			minor++
			cost += as.cfg.MinorFault
		}
	}
	as.MinorFaults += minor
	as.MajorFaults += major
	as.SwapOuts += evict
	as.noteRSS()
	if p != nil && cost > 0 {
		p.Sleep(cost)
	}
	if gpu && cost > as.cfg.GPUWatchdog {
		return ErrGPUTimeout
	}
	return nil
}

// evictOne pushes the oldest resident page to swap.
func (as *AddressSpace) evictOne() bool {
	for len(as.resident) > 0 {
		pg := as.resident[0]
		as.resident = as.resident[1:]
		if !pg.vma.present[pg.idx] {
			continue
		}
		pg.vma.present[pg.idx] = false
		pg.vma.swapped[pg.idx] = true
		as.pool.used--
		as.rssPages--
		return true
	}
	return false
}

// Rusage is the subset of struct rusage GENESYS exposes via getrusage.
type Rusage struct {
	MaxRSSBytes int64
	RSSBytes    int64
	MinorFaults int64
	MajorFaults int64
	SwapOuts    int64
}

// Usage returns resource usage for getrusage.
func (as *AddressSpace) Usage() Rusage {
	return Rusage{
		MaxRSSBytes: as.MaxRSSBytes(),
		RSSBytes:    as.RSSBytes(),
		MinorFaults: as.MinorFaults,
		MajorFaults: as.MajorFaults,
		SwapOuts:    as.SwapOuts,
	}
}

// MappedBytes returns the total mapped (virtual) size.
func (as *AddressSpace) MappedBytes() int64 {
	var n int64
	for _, v := range as.vmas {
		n += v.Length
	}
	return n
}

// String summarizes the address space.
func (as *AddressSpace) String() string {
	return fmt.Sprintf("vmm: %d vmas, mapped %d MiB, rss %d MiB",
		len(as.vmas), as.MappedBytes()>>20, as.RSSBytes()>>20)
}
