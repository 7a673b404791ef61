// Package fs implements the simulated machine's filesystems behind a
// small VFS: tmpfs (memory-resident, as used by the paper's Figure 7/10
// microbenchmarks), an SSD-backed filesystem with a page cache (Figures
// 13b/14), device nodes (/dev/fb0, /dev/null, /dev/zero, the console),
// and generated files in the style of /proc and /sys — giving the
// simulated kernel Linux's "everything is a file" property that GENESYS
// leans on (§IV).
package fs

import (
	"sort"
	"strings"

	"genesys/internal/cpu"
	"genesys/internal/errno"
	"genesys/internal/sim"
)

// IOCtx carries the simulation context through an I/O operation so
// filesystems can charge time to the calling process. When CPU is set,
// data-copy time is executed on a core at Prio (it shows up in the
// utilization ledger and contends with other threads); otherwise it is
// plain latency on P; a zero IOCtx makes I/O free (setup code).
type IOCtx struct {
	P    *sim.Proc
	CPU  *cpu.CPU
	Prio int

	// Trace threads causal tracing through the I/O path: when set,
	// device back-ends record their transfers as spans linked into the
	// originating syscall's flow chain.
	Trace uint64
}

// DefaultCopyBytesPerNS is the single-core memcpy bandwidth used for
// filesystem data movement (≈4 GB/s per core; copies on different cores
// proceed in parallel).
const DefaultCopyBytesPerNS = 4.0

// ChargeCopy bills the movement of n bytes at the given per-core
// bandwidth to the I/O context.
func ChargeCopy(io *IOCtx, n int64, bytesPerNS float64) {
	if io == nil || io.P == nil || n <= 0 {
		return
	}
	if bytesPerNS <= 0 {
		bytesPerNS = DefaultCopyBytesPerNS
	}
	d := sim.Time(float64(n) / bytesPerNS)
	if d <= 0 {
		return
	}
	if io.CPU != nil {
		io.CPU.Exec(io.P, d, io.Prio)
	} else {
		io.P.Sleep(d)
	}
}

// Node is anything that can live in a directory.
type Node interface {
	// Size returns the node's current size in bytes (0 for directories
	// and most devices).
	Size() int64
}

// FileNode is a node supporting positional data access.
type FileNode interface {
	Node
	ReadAt(io *IOCtx, b []byte, off int64) (int, error)
	WriteAt(io *IOCtx, b []byte, off int64) (int, error)
	Truncate(size int64) error
}

// DeviceNode is a node supporting ioctl, optionally mmap.
type DeviceNode interface {
	Node
	Ioctl(io *IOCtx, cmd uint64, arg []byte) (uint64, error)
	// MmapBuffer returns the device memory backing an mmap of the node,
	// or nil if the device is not mappable.
	MmapBuffer() []byte
}

// Dir is a directory node. Each directory carries the file-creation
// factory of the filesystem it belongs to, so O_CREAT works per-mount.
type Dir struct {
	entries map[string]Node
	newFile func() FileNode
}

// NewDir returns a directory creating files with the given factory
// (nil makes the directory read-only for creation).
func NewDir(newFile func() FileNode) *Dir {
	return &Dir{entries: make(map[string]Node), newFile: newFile}
}

// Size implements Node.
func (d *Dir) Size() int64 { return 0 }

// Lookup returns the named entry.
func (d *Dir) Lookup(name string) (Node, bool) {
	n, ok := d.entries[name]
	return n, ok
}

// Add inserts an entry, replacing any existing one.
func (d *Dir) Add(name string, n Node) { d.entries[name] = n }

// Remove deletes an entry.
func (d *Dir) Remove(name string) { delete(d.entries, name) }

// Names returns the sorted entry names.
func (d *Dir) Names() []string {
	out := make([]string, 0, len(d.entries))
	for n := range d.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// VFS is the filesystem namespace of the simulated machine.
type VFS struct {
	root *Dir
}

// NewVFS returns a namespace whose root directory cannot create files
// directly (mount subdirectories for that).
func NewVFS() *VFS {
	return &VFS{root: NewDir(nil)}
}

// split breaks an absolute path into components.
func split(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, errno.EINVAL
	}
	var parts []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			parts = append(parts, c)
		}
	}
	return parts, nil
}

// Resolve walks an absolute path to its node.
func (v *VFS) Resolve(path string) (Node, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	var cur Node = v.root
	for _, c := range parts {
		d, ok := cur.(*Dir)
		if !ok {
			return nil, errno.ENOTDIR
		}
		cur, ok = d.Lookup(c)
		if !ok {
			return nil, errno.ENOENT
		}
	}
	return cur, nil
}

// ResolveDir resolves a path that must be a directory.
func (v *VFS) ResolveDir(path string) (*Dir, error) {
	n, err := v.Resolve(path)
	if err != nil {
		return nil, err
	}
	d, ok := n.(*Dir)
	if !ok {
		return nil, errno.ENOTDIR
	}
	return d, nil
}

// parentOf resolves the parent directory and final component of path.
func (v *VFS) parentOf(path string) (*Dir, string, error) {
	parts, err := split(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", errno.EISDIR
	}
	var cur Node = v.root
	for _, c := range parts[:len(parts)-1] {
		d, ok := cur.(*Dir)
		if !ok {
			return nil, "", errno.ENOTDIR
		}
		cur, ok = d.Lookup(c)
		if !ok {
			return nil, "", errno.ENOENT
		}
	}
	d, ok := cur.(*Dir)
	if !ok {
		return nil, "", errno.ENOTDIR
	}
	return d, parts[len(parts)-1], nil
}

// MkdirAll creates the directory path (and parents) using the given
// file-creation factory for each new directory level.
func (v *VFS) MkdirAll(path string, newFile func() FileNode) (*Dir, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	cur := v.root
	for _, c := range parts {
		n, ok := cur.Lookup(c)
		if !ok {
			nd := NewDir(newFile)
			cur.Add(c, nd)
			cur = nd
			continue
		}
		d, ok := n.(*Dir)
		if !ok {
			return nil, errno.ENOTDIR
		}
		cur = d
	}
	return cur, nil
}

// Mkdir creates a single directory inside an existing parent, inheriting
// the parent's file-creation factory (so a directory made under a tmpfs
// mount is itself tmpfs).
func (v *VFS) Mkdir(path string) error {
	d, name, err := v.parentOf(path)
	if err != nil {
		return err
	}
	if _, exists := d.Lookup(name); exists {
		return errno.EEXIST
	}
	d.Add(name, NewDir(d.newFile))
	return nil
}

// Rename moves the node at oldPath to newPath, replacing any existing
// non-directory target.
func (v *VFS) Rename(oldPath, newPath string) error {
	od, oname, err := v.parentOf(oldPath)
	if err != nil {
		return err
	}
	n, ok := od.Lookup(oname)
	if !ok {
		return errno.ENOENT
	}
	nd, nname, err := v.parentOf(newPath)
	if err != nil {
		return err
	}
	if existing, exists := nd.Lookup(nname); exists {
		if dir, isDir := existing.(*Dir); isDir {
			if len(dir.entries) > 0 {
				return errno.ENOTEMPTY
			}
			if _, srcIsDir := n.(*Dir); !srcIsDir {
				return errno.EISDIR
			}
		}
	}
	od.Remove(oname)
	nd.Add(nname, n)
	return nil
}

// Unlink removes the node at path.
func (v *VFS) Unlink(path string) error {
	d, name, err := v.parentOf(path)
	if err != nil {
		return err
	}
	n, ok := d.Lookup(name)
	if !ok {
		return errno.ENOENT
	}
	if sub, isDir := n.(*Dir); isDir && len(sub.entries) > 0 {
		return errno.ENOTEMPTY
	}
	d.Remove(name)
	return nil
}

// Open flags (Linux values for the bits we support).
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
	O_RDWR   = 0x2
	O_CREAT  = 0x40
	O_TRUNC  = 0x200
	O_APPEND = 0x400
)

// Open opens path with the given flags, returning a new open-file
// description.
func (v *VFS) Open(path string, flags int) (*File, error) {
	n, err := v.Resolve(path)
	if err == errno.ENOENT && flags&O_CREAT != 0 {
		d, name, perr := v.parentOf(path)
		if perr != nil {
			return nil, perr
		}
		if d.newFile == nil {
			return nil, errno.EACCES
		}
		fn := d.newFile()
		d.Add(name, fn)
		n = fn
	} else if err != nil {
		return nil, err
	}
	if _, isDir := n.(*Dir); isDir {
		return nil, errno.EISDIR
	}
	f := &File{Path: path, flags: flags}
	if fn, ok := n.(FileNode); ok {
		f.Node = fn
		if flags&O_TRUNC != 0 && flags&(O_WRONLY|O_RDWR) != 0 {
			if err := fn.Truncate(0); err != nil {
				return nil, err
			}
		}
	}
	if dn, ok := n.(DeviceNode); ok {
		f.Device = dn
	}
	if f.Node == nil && f.Device == nil {
		return nil, errno.EINVAL
	}
	return f, nil
}
