package fs

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// CheckpointState walks the namespace and renders every node as a
// deterministic line: directories by sorted entry name, regular files by
// size and an fnv64a digest of their contents. Generated and control
// files (/proc, /sys) are listed by name only — their contents are
// derived views of other subsystems' state, which have their own
// sections. Reads use a zero IOCtx, so the walk charges no virtual time
// and perturbs nothing (SSD page caches fault only for a real process).
// Used as a verification section by internal/ckpt (DESIGN.md §10).
func (v *VFS) CheckpointState() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "fs v1\n")
	walkDir(&b, "/", v.root)
	return []byte(b.String())
}

func walkDir(b *strings.Builder, path string, d *Dir) {
	fmt.Fprintf(b, "dir %q entries=%d\n", path, len(d.entries))
	for _, name := range d.Names() {
		n, _ := d.Lookup(name)
		child := path + name
		switch node := n.(type) {
		case *Dir:
			walkDir(b, child+"/", node)
		case *GenFile, *CtlFile:
			fmt.Fprintf(b, "gen %q\n", child)
		case FileNode:
			fmt.Fprintf(b, "file %q size=%d digest=%016x\n",
				child, node.Size(), digestNode(node))
		default:
			fmt.Fprintf(b, "node %q size=%d\n", child, n.Size())
		}
	}
}

// digestNode hashes a file's contents via time-free reads. The loop is
// bounded by Size(), not EOF, because device nodes like /dev/zero
// synthesize unbounded reads.
func digestNode(n FileNode) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 64*1024)
	var off int64
	io := &IOCtx{}
	size := n.Size()
	for off < size {
		want := min(size-off, int64(len(buf)))
		r, err := n.ReadAt(io, buf[:want], off)
		if r > 0 {
			h.Write(buf[:r])
			off += int64(r)
		}
		if err != nil || r == 0 {
			break
		}
	}
	return h.Sum64()
}
