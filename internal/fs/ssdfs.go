package fs

import (
	"genesys/internal/blockdev"
)

// SSDFS is a filesystem backed by a simulated SSD, with a per-inode page
// cache: the first read of a page pays a device transfer, later reads only
// the memory copy. Contiguous uncached pages are merged into one device
// command, so large sequential reads issue efficient transfers while the
// device's channel parallelism rewards concurrent readers (Figure 14).
// Its files are regFiles whose pages carry the cache residency.
type SSDFS struct {
	dev *blockdev.SSD
	// epoch counts DropCaches calls; a file whose own epoch lags it
	// drops its residency the next time it looks.
	epoch uint64
}

// NewSSDFS returns an SSD-backed filesystem with PageSize pages.
func NewSSDFS(dev *blockdev.SSD) *SSDFS { return &SSDFS{dev: dev} }

// Device returns the backing device.
func (s *SSDFS) Device() *blockdev.SSD { return s.dev }

// NewFile creates an empty file node.
func (s *SSDFS) NewFile() FileNode { return &regFile{ssd: s, epoch: s.epoch} }

// Mount creates path as an SSD-backed directory tree.
func (s *SSDFS) Mount(v *VFS, path string) (*Dir, error) {
	return v.MkdirAll(path, s.NewFile)
}

// DropCaches evicts every cached page of every file (echo 3 >
// /proc/sys/vm/drop_caches), so experiments can compare cold runs.
func (s *SSDFS) DropCaches() { s.epoch++ }

// markCached makes pages [from, to) resident, first dropping the
// file's residency if DropCaches ran since the file last marked a page.
// A fault's device read may block while another process shrinks the
// file, so pages past the end are skipped.
func (f *regFile) markCached(from, to int64) {
	if f.epoch != f.ssd.epoch {
		for i := range f.pages {
			f.pages[i].cached = false
		}
		f.epoch = f.ssd.epoch
	}
	for pg := from; pg < min(to, int64(len(f.pages))); pg++ {
		f.pages[pg].cached = true
	}
}

// fault brings the page range covering [off, off+n) of an SSDFS file
// into the cache, merging contiguous uncached runs into single device
// commands. A device error aborts the fault; already-fetched runs stay
// cached.
func (f *regFile) fault(io *IOCtx, off, n int64) error {
	if f.ssd == nil || io == nil || io.P == nil || n <= 0 {
		return nil
	}
	last := (off + n - 1) / PageSize
	run := off / PageSize // first page of the uncached run
	for pg := run; pg <= last+1; pg++ {
		cached := f.epoch == f.ssd.epoch && pg < int64(len(f.pages)) && f.pages[pg].cached
		if pg <= last && !cached {
			continue
		}
		if pg > run {
			if err := f.ssd.dev.ReadTraced(io.P, (pg-run)*PageSize, io.Trace); err != nil {
				return err
			}
			f.markCached(run, pg)
		}
		run = pg + 1
	}
	return nil
}
