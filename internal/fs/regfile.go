package fs

import (
	"genesys/internal/errno"
)

// PageSize is the unit of tmpfs and SSDFS file data and of the SSDFS
// page cache.
const PageSize = 4096

// MaxFileSize is the largest size a tmpfs or SSDFS file can reach. A
// write or truncate past it fails with EFBIG, which bounds the host
// memory a file's page table and pages can take. It sits above the
// largest file any experiment builds (Figure 7's 256 MiB).
const MaxFileSize int64 = 4 << 30

// page is one PageSize page of a regular file.
type page struct {
	data   *[PageSize]byte // nil: a hole, which reads as zeros
	shared bool            // data is borrowed through Share: copy before writing
	cached bool            // SSDFS: resident in the page cache
}

// zeroPage is what a hole reads as.
var zeroPage [PageSize]byte

// writable returns the page's own data: a hole gets a zeroed page and a
// borrowed page is copied first.
func (p *page) writable() *[PageSize]byte {
	if p.data == nil {
		p.data = new([PageSize]byte)
	} else if p.shared {
		own := *p.data
		p.data, p.shared = &own, false
	}
	return p.data
}

// regFile is a tmpfs or SSDFS regular file. Its data is one entry per
// page up to size; the bytes past size in the last page are zero. A
// write allocates only the pages it touches. The SSDFS steps (the read
// fault and the write-back charge) run only when ssd is set.
type regFile struct {
	pages []page
	size  int64
	ssd   *SSDFS
	epoch uint64 // the ssd.epoch the pages' cached flags belong to
}

func (f *regFile) Size() int64 { return f.size }

func (f *regFile) charge(io *IOCtx, n int) {
	bw := TmpfsBytesPerNS
	if f.ssd != nil {
		bw = DefaultCopyBytesPerNS
	}
	ChargeCopy(io, int64(n), bw)
}

func (f *regFile) ReadAt(io *IOCtx, b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errno.EINVAL
	}
	if off >= f.size {
		return 0, nil // EOF
	}
	n := int(min(int64(len(b)), f.size-off))
	for i := 0; i < n; {
		pos := off + int64(i)
		d := f.pages[pos/PageSize].data
		if d == nil {
			d = &zeroPage
		}
		i += copy(b[i:n], d[pos%PageSize:])
	}
	if err := f.fault(io, off, int64(n)); err != nil {
		return 0, err
	}
	f.charge(io, n)
	return n, nil
}

func (f *regFile) WriteAt(io *IOCtx, b []byte, off int64) (int, error) {
	if len(b) == 0 {
		// Writing nothing checks the offset like any write but, as on
		// Linux, leaves the size alone, even past EOF.
		_, err := fileEnd(off, 0)
		return 0, err
	}
	if err := f.store(b, off, false); err != nil {
		return 0, err
	}
	if f.ssd != nil && io != nil && io.P != nil {
		// Write-back cache: the pages become resident and the device
		// write is charged at once (no dirty tracking).
		f.markCached(off/PageSize, (off+int64(len(b))-1)/PageSize+1)
		if err := f.ssd.dev.WriteTraced(io.P, int64(len(b)), io.Trace); err != nil {
			return 0, err
		}
	}
	f.charge(io, len(b))
	return len(b), nil
}

// store puts b at off, extending the file with holes up to there. With
// share set, every whole, page-aligned page of b is borrowed rather than
// copied.
func (f *regFile) store(b []byte, off int64, share bool) error {
	end, err := fileEnd(off, int64(len(b)))
	if err != nil {
		return err
	}
	if np := int((end + PageSize - 1) / PageSize); np > len(f.pages) {
		f.pages = append(f.pages, make([]page, np-len(f.pages))...)
	}
	f.size = max(f.size, end)
	for i := 0; i < len(b); {
		pos := off + int64(i)
		p := &f.pages[pos/PageSize]
		if in := int(pos % PageSize); share && in == 0 && len(b)-i >= PageSize {
			p.data, p.shared = (*[PageSize]byte)(b[i:]), true
			i += PageSize
		} else {
			i += copy(p.writable()[in:], b[i:])
		}
	}
	return nil
}

// Truncate resizes the file. Growth adds holes; a shrink drops the pages
// past the new end and zeroes the tail of the page it cuts.
func (f *regFile) Truncate(size int64) error {
	if size >= f.size {
		return f.store(nil, size, false)
	}
	if size < 0 {
		return errno.EINVAL
	}
	np := (size + PageSize - 1) / PageSize
	clear(f.pages[np:])
	f.pages = f.pages[:np]
	if in := size % PageSize; in != 0 && f.pages[np-1].data != nil {
		clear(f.pages[np-1].writable()[in:])
	}
	f.size = size
	return nil
}

// Share stores data at off in n without charging time, like a WriteAt
// with a zero IOCtx, which is what it does on a node that is not a tmpfs
// or SSDFS file. A tmpfs or SSDFS file borrows each whole, page-aligned
// PageSize page of data instead of copying it, and copies a borrowed
// page before the first write into it or a shrinking Truncate that cuts
// it, so data must not change after the call.
func Share(n FileNode, off int64, data []byte) error {
	if f, ok := n.(*regFile); ok && len(data) > 0 {
		return f.store(data, off, true)
	}
	_, err := n.WriteAt(&IOCtx{}, data, off)
	return err
}

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
