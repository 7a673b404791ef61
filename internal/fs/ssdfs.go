package fs

import (
	"genesys/internal/blockdev"
	"genesys/internal/errno"
)

// SSDFS is a filesystem backed by a simulated SSD, with a per-inode page
// cache: the first read of a page pays a device transfer, later reads only
// the memory copy. Contiguous uncached pages are merged into one device
// command, so large sequential reads issue efficient transfers while the
// device's channel parallelism rewards concurrent readers (Figure 14).
type SSDFS struct {
	// BytesPerNS is the per-core copy bandwidth charged for cached I/O.
	BytesPerNS float64

	dev      *blockdev.SSD
	pageSize int64

	files []*ssdFile
}

// NewSSDFS returns an SSD-backed filesystem with 4 KiB pages.
func NewSSDFS(dev *blockdev.SSD) *SSDFS {
	return &SSDFS{BytesPerNS: DefaultCopyBytesPerNS, dev: dev, pageSize: 4096}
}

// Device returns the backing device.
func (s *SSDFS) Device() *blockdev.SSD { return s.dev }

// NewFile creates an empty file node.
func (s *SSDFS) NewFile() FileNode {
	f := &ssdFile{fs: s, cached: make(map[int64]bool)}
	s.files = append(s.files, f)
	return f
}

// Mount creates path as an SSD-backed directory tree.
func (s *SSDFS) Mount(v *VFS, path string) (*Dir, error) {
	return v.MkdirAll(path, s.NewFile)
}

// DropCaches evicts every cached page of every file (echo 3 >
// /proc/sys/vm/drop_caches), so experiments can compare cold runs.
func (s *SSDFS) DropCaches() {
	for _, f := range s.files {
		f.cached = make(map[int64]bool)
	}
}

type ssdFile struct {
	fs     *SSDFS
	data   []byte
	cached map[int64]bool // page index → resident in page cache
}

func (f *ssdFile) Size() int64 { return int64(len(f.data)) }

func (f *ssdFile) charge(io *IOCtx, n int) {
	ChargeCopy(io, int64(n), f.fs.BytesPerNS)
}

// fault brings the page range covering [off, off+n) into the cache,
// merging contiguous uncached runs into single device commands. A device
// error aborts the fault; already-fetched runs stay cached.
func (f *ssdFile) fault(io *IOCtx, off, n int64) error {
	if io == nil || io.P == nil || n <= 0 {
		return nil
	}
	ps := f.fs.pageSize
	first := off / ps
	last := (off + n - 1) / ps
	runStart := int64(-1)
	flush := func(endExcl int64) error {
		if runStart < 0 {
			return nil
		}
		pages := endExcl - runStart
		if err := f.fs.dev.ReadTraced(io.P, pages*ps, io.Trace); err != nil {
			runStart = -1
			return err
		}
		for pg := runStart; pg < endExcl; pg++ {
			f.cached[pg] = true
		}
		runStart = -1
		return nil
	}
	for pg := first; pg <= last; pg++ {
		if f.cached[pg] {
			if err := flush(pg); err != nil {
				return err
			}
			continue
		}
		if runStart < 0 {
			runStart = pg
		}
	}
	return flush(last + 1)
}

func (f *ssdFile) ReadAt(io *IOCtx, b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errno.EINVAL
	}
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	n := copy(b, f.data[off:])
	if err := f.fault(io, off, int64(n)); err != nil {
		return 0, err
	}
	f.charge(io, n)
	return n, nil
}

func (f *ssdFile) WriteAt(io *IOCtx, b []byte, off int64) (int, error) {
	end, err := fileEnd(off, int64(len(b)))
	if err != nil {
		return 0, err
	}
	f.data = grow(f.data, end)
	n := copy(f.data[off:end], b)
	// Write-back cache: pages become resident; device write is charged
	// immediately at page granularity (no dirty tracking).
	if io != nil && io.P != nil && n > 0 {
		ps := f.fs.pageSize
		first, last := off/ps, (off+int64(n)-1)/ps
		for pg := first; pg <= last; pg++ {
			f.cached[pg] = true
		}
		if err := f.fs.dev.WriteTraced(io.P, int64(n), io.Trace); err != nil {
			return 0, err
		}
	}
	f.charge(io, n)
	return n, nil
}

func (f *ssdFile) Truncate(size int64) error {
	if _, err := fileEnd(size, 0); err != nil {
		return err
	}
	if size <= int64(len(f.data)) {
		f.data = f.data[:size]
		return nil
	}
	f.data = grow(f.data, size)
	return nil
}
