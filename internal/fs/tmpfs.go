package fs

// Tmpfs is a memory-resident filesystem: reads and writes cost only the
// memory-system copy, with no backing storage — the filesystem used by
// the paper's invocation-granularity and coalescing microbenchmarks
// (Figures 7 and 10).
type Tmpfs struct{}

// TmpfsBytesPerNS is tmpfs's per-core copy bandwidth: a pure memcpy
// with no page-cache management, so roughly twice the default rate.
const TmpfsBytesPerNS = 8.0

// NewTmpfs returns a tmpfs charging copies at the memcpy rate.
func NewTmpfs() *Tmpfs { return &Tmpfs{} }

// NewFile creates an empty tmpfs file node.
func (t *Tmpfs) NewFile() FileNode { return &regFile{} }

// Mount creates path as a tmpfs directory tree.
func (t *Tmpfs) Mount(v *VFS, path string) (*Dir, error) {
	return v.MkdirAll(path, t.NewFile)
}
