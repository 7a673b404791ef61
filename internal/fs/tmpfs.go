package fs

import (
	"genesys/internal/errno"
)

// Tmpfs is a memory-resident filesystem: reads and writes cost only the
// memory-system copy, with no backing storage — the filesystem used by
// the paper's invocation-granularity and coalescing microbenchmarks
// (Figures 7 and 10).
type Tmpfs struct {
	// BytesPerNS is the per-core copy bandwidth charged for I/O.
	BytesPerNS float64
}

// TmpfsBytesPerNS is tmpfs's per-core copy bandwidth: a pure memcpy
// with no page-cache management, so roughly twice the default rate.
const TmpfsBytesPerNS = 8.0

// NewTmpfs returns a tmpfs charging copies at the memcpy rate.
func NewTmpfs() *Tmpfs { return &Tmpfs{BytesPerNS: TmpfsBytesPerNS} }

// NewFile creates an empty tmpfs file node.
func (t *Tmpfs) NewFile() FileNode { return &tmpFile{fs: t} }

// Mount creates path as a tmpfs directory tree.
func (t *Tmpfs) Mount(v *VFS, path string) (*Dir, error) {
	return v.MkdirAll(path, t.NewFile)
}

type tmpFile struct {
	fs   *Tmpfs
	data []byte
}

func (f *tmpFile) Size() int64 { return int64(len(f.data)) }

func (f *tmpFile) charge(io *IOCtx, n int) {
	ChargeCopy(io, int64(n), f.fs.BytesPerNS)
}

func (f *tmpFile) ReadAt(io *IOCtx, b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errno.EINVAL
	}
	if off >= int64(len(f.data)) {
		return 0, nil // EOF
	}
	n := copy(b, f.data[off:])
	f.charge(io, n)
	return n, nil
}

func (f *tmpFile) WriteAt(io *IOCtx, b []byte, off int64) (int, error) {
	end, err := fileEnd(off, int64(len(b)))
	if err != nil {
		return 0, err
	}
	f.data = grow(f.data, end)
	n := copy(f.data[off:end], b)
	f.charge(io, n)
	return n, nil
}

func (f *tmpFile) Truncate(size int64) error {
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

// MaxFileSize is the largest size a tmpfs or SSDFS file can reach. A
// write or truncate past it fails with EFBIG instead of asking the host
// for that much memory. It sits above the largest file any experiment
// builds (Figure 7's 256 MiB).
const MaxFileSize int64 = 4 << 30

// fileEnd returns off+n, where a write of n bytes at off ends or a
// truncate to size off (n = 0) leaves the file: EINVAL for a negative
// offset, EFBIG past MaxFileSize. It compares off with what is left
// below the cap, so the sum cannot wrap.
func fileEnd(off, n int64) (int64, error) {
	if off < 0 {
		return 0, errno.EINVAL
	}
	if off > MaxFileSize-n {
		return 0, errno.EFBIG
	}
	return off + n, nil
}

// grow returns data extended to n bytes, or data itself if it is already
// that long. Every new byte reads as zero, including capacity a
// shrinking Truncate left behind. When the capacity runs out it at least
// doubles, so a file appended in small writes costs amortised O(bytes)
// to build. Tmpfs and SSDFS files share it.
func grow(data []byte, n int64) []byte {
	old := int64(len(data))
	if n <= old {
		return data
	}
	if n <= int64(cap(data)) {
		data = data[:n]
		clear(data[old:])
		return data
	}
	nd := make([]byte, n, max(n, 2*int64(cap(data))))
	copy(nd, data)
	return nd
}
