package fs

import (
	"encoding/binary"
	"strings"

	"genesys/internal/errno"
)

// Console is the terminal device: writes accumulate and are retrievable
// by tests and the CLI; reads return EOF. GENESYS programs print straight
// to it from the GPU (the paper's grep prints matching filenames to the
// terminal, §VIII-C).
type Console struct {
	buf []byte
}

// NewConsole returns an empty console.
func NewConsole() *Console { return &Console{} }

// Size implements Node.
func (c *Console) Size() int64 { return int64(len(c.buf)) }

// ReadAt always reports EOF: the simulated terminal has no input.
func (c *Console) ReadAt(io *IOCtx, b []byte, off int64) (int, error) {
	return 0, nil
}

// WriteAt appends to the console regardless of offset.
func (c *Console) WriteAt(io *IOCtx, b []byte, off int64) (int, error) {
	c.buf = append(c.buf, b...)
	ChargeCopy(io, int64(len(b)), DefaultCopyBytesPerNS)
	return len(b), nil
}

// Truncate clears the console.
func (c *Console) Truncate(size int64) error {
	if size == 0 {
		c.buf = nil
	}
	return nil
}

// Contents returns everything written so far.
func (c *Console) Contents() string { return string(c.buf) }

// Lines returns the non-empty lines written so far.
func (c *Console) Lines() []string {
	var out []string
	for _, l := range strings.Split(string(c.buf), "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

// NullDev is /dev/null: writes vanish, reads are EOF.
type NullDev struct{}

func (NullDev) Size() int64                                      { return 0 }
func (NullDev) ReadAt(*IOCtx, []byte, int64) (int, error)        { return 0, nil }
func (NullDev) WriteAt(_ *IOCtx, b []byte, _ int64) (int, error) { return len(b), nil }
func (NullDev) Truncate(int64) error                             { return nil }

// ZeroDev is /dev/zero: reads fill with zero bytes.
type ZeroDev struct{}

func (ZeroDev) Size() int64 { return 0 }
func (ZeroDev) ReadAt(_ *IOCtx, b []byte, _ int64) (int, error) {
	clear(b)
	return len(b), nil
}
func (ZeroDev) WriteAt(_ *IOCtx, b []byte, _ int64) (int, error) { return len(b), nil }
func (ZeroDev) Truncate(int64) error                             { return nil }

// GenFile is a read-only file whose contents are generated on each read —
// the mechanism behind the simulated /proc and /sys entries.
type GenFile struct {
	Gen func() []byte
}

func (g *GenFile) Size() int64 { return int64(len(g.Gen())) }

func (g *GenFile) ReadAt(io *IOCtx, b []byte, off int64) (int, error) {
	data := g.Gen()
	if off >= int64(len(data)) {
		return 0, nil
	}
	return copy(b, data[off:]), nil
}

func (g *GenFile) WriteAt(*IOCtx, []byte, int64) (int, error) {
	return 0, errno.EACCES
}

func (g *GenFile) Truncate(int64) error { return errno.EACCES }

// CtlFile is a writable control file backed by setter/getter callbacks —
// the mechanism behind sysfs tunables such as GENESYS's coalescing knobs.
type CtlFile struct {
	Get func() []byte
	Set func([]byte) error
}

func (c *CtlFile) Size() int64 { return int64(len(c.Get())) }

func (c *CtlFile) ReadAt(io *IOCtx, b []byte, off int64) (int, error) {
	data := c.Get()
	if off >= int64(len(data)) {
		return 0, nil
	}
	return copy(b, data[off:]), nil
}

func (c *CtlFile) WriteAt(_ *IOCtx, b []byte, _ int64) (int, error) {
	if err := c.Set(b); err != nil {
		return 0, err
	}
	return len(b), nil
}

func (c *CtlFile) Truncate(int64) error { return nil }

// Framebuffer ioctl commands (Linux values).
const (
	FBIOGET_VSCREENINFO = 0x4600
	FBIOPUT_VSCREENINFO = 0x4601
)

// VScreenInfo is the variable screen info exchanged over framebuffer
// ioctls, binary-encoded little-endian in the ioctl argument buffer.
type VScreenInfo struct {
	XRes uint32
	YRes uint32
	BPP  uint32
}

// EncodedSize is the wire size of a VScreenInfo.
const vScreenInfoSize = 12

// Encode serializes the info into a 12-byte buffer.
func (v VScreenInfo) Encode() []byte {
	b := make([]byte, vScreenInfoSize)
	binary.LittleEndian.PutUint32(b[0:], v.XRes)
	binary.LittleEndian.PutUint32(b[4:], v.YRes)
	binary.LittleEndian.PutUint32(b[8:], v.BPP)
	return b
}

// DecodeVScreenInfo parses a 12-byte buffer.
func DecodeVScreenInfo(b []byte) (VScreenInfo, error) {
	if len(b) < vScreenInfoSize {
		return VScreenInfo{}, errno.EINVAL
	}
	return VScreenInfo{
		XRes: binary.LittleEndian.Uint32(b[0:]),
		YRes: binary.LittleEndian.Uint32(b[4:]),
		BPP:  binary.LittleEndian.Uint32(b[8:]),
	}, nil
}

// Framebuffer is /dev/fb0: a device node whose pixel memory can be
// written positionally, mmap'd, and configured over ioctl (§VIII-E).
// The pixel memory is allocated on first access, so a machine that never
// touches the display never pays for it.
type Framebuffer struct {
	info VScreenInfo
	pix  []byte // nil until first access
}

// NewFramebuffer returns a framebuffer with the given mode.
func NewFramebuffer(info VScreenInfo) *Framebuffer {
	return &Framebuffer{info: info}
}

// Info returns the current mode.
func (fb *Framebuffer) Info() VScreenInfo { return fb.info }

// Pixels returns the live pixel memory.
func (fb *Framebuffer) Pixels() []byte {
	if fb.pix == nil {
		fb.pix = make([]byte, fb.Size())
	}
	return fb.pix
}

// Size implements Node.
func (fb *Framebuffer) Size() int64 {
	return int64(fb.info.XRes) * int64(fb.info.YRes) * int64(fb.info.BPP/8)
}

// ReadAt reads pixel memory.
func (fb *Framebuffer) ReadAt(io *IOCtx, b []byte, off int64) (int, error) {
	if off >= fb.Size() {
		return 0, nil
	}
	n := copy(b, fb.Pixels()[off:])
	ChargeCopy(io, int64(n), DefaultCopyBytesPerNS)
	return n, nil
}

// WriteAt writes pixel memory.
func (fb *Framebuffer) WriteAt(io *IOCtx, b []byte, off int64) (int, error) {
	if off < 0 || off >= fb.Size() {
		return 0, errno.EINVAL
	}
	n := copy(fb.Pixels()[off:], b)
	ChargeCopy(io, int64(n), DefaultCopyBytesPerNS)
	return n, nil
}

// Truncate is not supported on the framebuffer.
func (fb *Framebuffer) Truncate(int64) error { return errno.EINVAL }

// Ioctl implements the FBIOGET/PUT_VSCREENINFO commands. For GET, the
// reply is encoded into arg; for PUT, arg carries the new mode.
func (fb *Framebuffer) Ioctl(io *IOCtx, cmd uint64, arg []byte) (uint64, error) {
	switch cmd {
	case FBIOGET_VSCREENINFO:
		if len(arg) < vScreenInfoSize {
			return 0, errno.EINVAL
		}
		copy(arg, fb.info.Encode())
		return 0, nil
	case FBIOPUT_VSCREENINFO:
		info, err := DecodeVScreenInfo(arg)
		if err != nil {
			return 0, err
		}
		if info.XRes == 0 || info.YRes == 0 || (info.BPP != 8 && info.BPP != 16 && info.BPP != 24 && info.BPP != 32) {
			return 0, errno.EINVAL
		}
		fb.info, fb.pix = info, nil
		return 0, nil
	default:
		return 0, errno.ENOTTY
	}
}

// MmapBuffer exposes the pixel memory for mmap.
func (fb *Framebuffer) MmapBuffer() []byte { return fb.Pixels() }
