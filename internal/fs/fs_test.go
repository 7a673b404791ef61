package fs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"genesys/internal/blockdev"
	"genesys/internal/errno"
	"genesys/internal/sim"
)

func newTmpVFS(t *testing.T) (*VFS, *Tmpfs) {
	t.Helper()
	v := NewVFS()
	tfs := NewTmpfs()
	if _, err := tfs.Mount(v, "/tmp"); err != nil {
		t.Fatal(err)
	}
	return v, tfs
}

func TestOpenCreateWriteRead(t *testing.T) {
	v, _ := newTmpVFS(t)
	f, err := v.Open("/tmp/hello.txt", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	io := &IOCtx{}
	if n, err := f.Write(io, []byte("hello world")); n != 11 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	if _, err := f.Lseek(0, SeekSet); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := f.Read(io, buf)
	if err != nil || string(buf[:n]) != "hello world" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	// EOF
	if n, err := f.Read(io, buf); n != 0 || err != nil {
		t.Fatalf("read at EOF = %d, %v", n, err)
	}
}

func TestStatefulOffsetSharedAcrossReads(t *testing.T) {
	// The paper's point (§IV): read/write are stateful; the offset is per
	// open-file description.
	v, _ := newTmpVFS(t)
	f, _ := v.Open("/tmp/f", O_RDWR|O_CREAT)
	io := &IOCtx{}
	f.Write(io, []byte("abcdef"))
	f.Lseek(0, SeekSet)
	b := make([]byte, 2)
	f.Read(io, b)
	if string(b) != "ab" {
		t.Fatalf("first read = %q", b)
	}
	f.Read(io, b)
	if string(b) != "cd" {
		t.Fatalf("second read = %q", b)
	}
	if f.Pos() != 4 {
		t.Fatalf("pos = %d", f.Pos())
	}
}

func TestPreadDoesNotMoveOffset(t *testing.T) {
	v, _ := newTmpVFS(t)
	f, _ := v.Open("/tmp/f", O_RDWR|O_CREAT)
	io := &IOCtx{}
	f.Write(io, []byte("abcdef"))
	b := make([]byte, 3)
	if n, err := f.Pread(io, b, 2); n != 3 || err != nil || string(b) != "cde" {
		t.Fatalf("pread = %q, %d, %v", b, n, err)
	}
	if f.Pos() != 6 {
		t.Fatalf("pos moved to %d", f.Pos())
	}
}

func TestPwriteAtArbitraryOffsets(t *testing.T) {
	v, _ := newTmpVFS(t)
	f, _ := v.Open("/tmp/f", O_RDWR|O_CREAT)
	io := &IOCtx{}
	if _, err := f.Pwrite(io, []byte("xy"), 4); err != nil {
		t.Fatal(err)
	}
	if f.Node.Size() != 6 {
		t.Fatalf("size = %d, want 6 (hole-extended)", f.Node.Size())
	}
	b := make([]byte, 6)
	f.Pread(io, b, 0)
	if !bytes.Equal(b, []byte{0, 0, 0, 0, 'x', 'y'}) {
		t.Fatalf("content = %v", b)
	}
}

func TestOpenFlags(t *testing.T) {
	v, _ := newTmpVFS(t)
	io := &IOCtx{}
	if _, err := v.Open("/tmp/missing", O_RDONLY); err != errno.ENOENT {
		t.Fatalf("open missing = %v", err)
	}
	f, _ := v.Open("/tmp/f", O_WRONLY|O_CREAT)
	f.Write(io, []byte("data"))
	if _, err := f.Read(io, make([]byte, 4)); err != errno.EBADF {
		t.Fatalf("read on O_WRONLY = %v", err)
	}
	ro, _ := v.Open("/tmp/f", O_RDONLY)
	if _, err := ro.Write(io, []byte("x")); err != errno.EBADF {
		t.Fatalf("write on O_RDONLY = %v", err)
	}
	tr, _ := v.Open("/tmp/f", O_WRONLY|O_TRUNC)
	if tr.Node.Size() != 0 {
		t.Fatal("O_TRUNC did not truncate")
	}
	ap, _ := v.Open("/tmp/f", O_WRONLY|O_APPEND)
	ap.Write(io, []byte("aa"))
	ap2, _ := v.Open("/tmp/f", O_WRONLY|O_APPEND)
	ap2.Write(io, []byte("bb"))
	all := make([]byte, 8)
	rd, _ := v.Open("/tmp/f", O_RDONLY)
	n, _ := rd.Read(io, all)
	if string(all[:n]) != "aabb" {
		t.Fatalf("append content = %q", all[:n])
	}
}

func TestLseekWhence(t *testing.T) {
	v, _ := newTmpVFS(t)
	f, _ := v.Open("/tmp/f", O_RDWR|O_CREAT)
	io := &IOCtx{}
	f.Write(io, []byte("0123456789"))
	if pos, _ := f.Lseek(-3, SeekEnd); pos != 7 {
		t.Fatalf("SeekEnd pos = %d", pos)
	}
	if pos, _ := f.Lseek(1, SeekCur); pos != 8 {
		t.Fatalf("SeekCur pos = %d", pos)
	}
	if _, err := f.Lseek(-100, SeekCur); err != errno.EINVAL {
		t.Fatalf("negative seek = %v", err)
	}
	if _, err := f.Lseek(0, 99); err != errno.EINVAL {
		t.Fatalf("bad whence = %v", err)
	}
}

func TestPathResolution(t *testing.T) {
	v, _ := newTmpVFS(t)
	if _, err := v.Open("relative", O_RDONLY); err != errno.EINVAL {
		t.Fatalf("relative path = %v", err)
	}
	f, err := v.Open("/tmp/../tmp/./x", O_CREAT|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	if f.Path != "/tmp/../tmp/./x" {
		t.Fatalf("path = %q", f.Path)
	}
	if _, err := v.Resolve("/tmp/x"); err != nil {
		t.Fatalf("dot-dot normalization broken: %v", err)
	}
	if _, err := v.Resolve("/tmp/x/y"); err != errno.ENOTDIR {
		t.Fatalf("file-as-dir = %v", err)
	}
}

func TestUnlink(t *testing.T) {
	v, _ := newTmpVFS(t)
	v.Open("/tmp/gone", O_CREAT|O_WRONLY)
	if err := v.Unlink("/tmp/gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Resolve("/tmp/gone"); err != errno.ENOENT {
		t.Fatalf("after unlink = %v", err)
	}
	if err := v.Unlink("/tmp"); err != errno.ENOTEMPTY && err != nil {
		// /tmp is now empty, so removal is allowed.
		t.Fatalf("unlink dir = %v", err)
	}
}

func TestDirNames(t *testing.T) {
	v, _ := newTmpVFS(t)
	for _, n := range []string{"c", "a", "b"} {
		v.Open("/tmp/"+n, O_CREAT|O_WRONLY)
	}
	d, err := v.ResolveDir("/tmp")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(d.Names()) != "[a b c]" {
		t.Fatalf("names = %v", d.Names())
	}
}

func TestFDTable(t *testing.T) {
	tb := NewFDTable(4)
	f := &File{}
	fd0, _ := tb.Install(f)
	fd1, _ := tb.Install(f)
	if fd0 != 0 || fd1 != 1 {
		t.Fatalf("fds = %d, %d", fd0, fd1)
	}
	tb.Close(fd0)
	fd2, _ := tb.Install(f) // reuses lowest free
	if fd2 != 0 {
		t.Fatalf("reused fd = %d", fd2)
	}
	tb.Install(f)
	tb.Install(f)
	if _, err := tb.Install(f); err != errno.EMFILE {
		t.Fatalf("over limit = %v", err)
	}
	if _, err := tb.Get(99); err != errno.EBADF {
		t.Fatalf("bad fd = %v", err)
	}
	if err := tb.Close(99); err != errno.EBADF {
		t.Fatalf("close bad fd = %v", err)
	}
	if tb.OpenCount() != 4 {
		t.Fatalf("open count = %d", tb.OpenCount())
	}
}

func TestTmpfsChargesMemoryTime(t *testing.T) {
	e := sim.NewEngine(1)
	v := NewVFS()
	NewTmpfs().Mount(v, "/tmp")
	f, _ := v.Open("/tmp/big", O_RDWR|O_CREAT)
	f.Pwrite(&IOCtx{}, make([]byte, 1<<20), 0) // free setup write
	var elapsed sim.Time
	e.Spawn("reader", func(p *sim.Proc) {
		start := p.Now()
		buf := make([]byte, 1<<20)
		f.Pread(&IOCtx{P: p}, buf, 0)
		elapsed = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 MiB at 8 B/ns ≈ 131 us.
	if elapsed < 80*sim.Microsecond || elapsed > 250*sim.Microsecond {
		t.Fatalf("1MiB tmpfs read took %v, want ≈131us", elapsed)
	}
}

func TestSSDFSPageCache(t *testing.T) {
	e := sim.NewEngine(1)
	dev := blockdev.New(e, blockdev.DefaultConfig())
	v := NewVFS()
	sfs := NewSSDFS(dev)
	sfs.Mount(v, "/data")
	f, _ := v.Open("/data/file", O_RDWR|O_CREAT)
	f.Pwrite(&IOCtx{}, bytes.Repeat([]byte("x"), 1<<20), 0)
	sfs.DropCaches()

	var cold, warm sim.Time
	var faults []int64 // device bytes read by each later read
	e.Spawn("reader", func(p *sim.Proc) {
		io := &IOCtx{P: p}
		buf := make([]byte, 1<<20)
		t0 := p.Now()
		f.Pread(io, buf, 0)
		cold = p.Now() - t0
		t1 := p.Now()
		f.Pread(io, buf, 0)
		warm = p.Now() - t1

		// A file cached before DropCaches and one created after it
		// must each fault on their next read, and only on that one.
		sfs.DropCaches()
		late, _ := v.Open("/data/late", O_RDWR|O_CREAT)
		late.Pwrite(&IOCtx{}, bytes.Repeat([]byte("y"), 1<<20), 0)
		for _, g := range []*File{f, late, f, late} {
			before := dev.BytesRead.Value()
			g.Pread(io, buf, 0)
			faults = append(faults, dev.BytesRead.Value()-before)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(faults) != fmt.Sprint([]int64{1 << 20, 1 << 20, 0, 0}) {
		t.Fatalf("device bytes per read after DropCaches = %v, want [1MiB 1MiB 0 0]", faults)
	}
	if dev.BytesRead.Value() != 3<<20 {
		t.Fatalf("device read %d bytes, want 3MiB exactly (merged, once per cold file)", dev.BytesRead.Value())
	}
	if cold < 10*warm {
		t.Fatalf("cold=%v warm=%v: page cache ineffective", cold, warm)
	}
}

func TestSSDQueueDepthScaling(t *testing.T) {
	// One serial reader vs 8 concurrent readers of separate files: the
	// 8-channel device should give concurrent readers much higher
	// aggregate throughput (the Figure 14 mechanism).
	run := func(readers int) float64 {
		e := sim.NewEngine(1)
		dev := blockdev.New(e, blockdev.DefaultConfig())
		v := NewVFS()
		sfs := NewSSDFS(dev)
		sfs.Mount(v, "/data")
		const fileSize = 4 << 20
		files := make([]*File, readers)
		for i := range files {
			f, _ := v.Open(fmt.Sprintf("/data/f%d", i), O_RDWR|O_CREAT)
			f.Pwrite(&IOCtx{}, make([]byte, fileSize), 0)
			files[i] = f
		}
		sfs.DropCaches()
		for i := range files {
			f := files[i]
			e.Spawn("reader", func(p *sim.Proc) {
				io := &IOCtx{P: p}
				buf := make([]byte, 128<<10)
				for off := int64(0); off < fileSize; off += int64(len(buf)) {
					f.Pread(io, buf, off)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(readers*fileSize) / e.Now().Seconds() / 1e6 // MB/s
	}
	serial := run(1)
	parallel := run(8)
	if serial < 15 || serial > 40 {
		t.Fatalf("serial throughput = %.1f MB/s, want ~25-30", serial)
	}
	if parallel < 4*serial {
		t.Fatalf("parallel=%.1f serial=%.1f: channel parallelism missing", parallel, serial)
	}
}

func TestConsole(t *testing.T) {
	c := NewConsole()
	io := &IOCtx{}
	c.WriteAt(io, []byte("line1\n"), 0)
	c.WriteAt(io, []byte("line2\n"), 0)
	if c.Contents() != "line1\nline2\n" {
		t.Fatalf("contents = %q", c.Contents())
	}
	if fmt.Sprint(c.Lines()) != "[line1 line2]" {
		t.Fatalf("lines = %v", c.Lines())
	}
	if n, _ := c.ReadAt(io, make([]byte, 4), 0); n != 0 {
		t.Fatal("console read returned data")
	}
}

func TestNullAndZero(t *testing.T) {
	io := &IOCtx{}
	var n NullDev
	if w, _ := n.WriteAt(io, []byte("xxx"), 0); w != 3 {
		t.Fatal("null write")
	}
	if r, _ := n.ReadAt(io, make([]byte, 3), 0); r != 0 {
		t.Fatal("null read")
	}
	var z ZeroDev
	b := []byte{1, 2, 3}
	z.ReadAt(io, b, 0)
	if !bytes.Equal(b, []byte{0, 0, 0}) {
		t.Fatal("zero read")
	}
}

func TestGenAndCtlFiles(t *testing.T) {
	g := &GenFile{Gen: func() []byte { return []byte("generated") }}
	b := make([]byte, 16)
	n, _ := g.ReadAt(&IOCtx{}, b, 0)
	if string(b[:n]) != "generated" {
		t.Fatalf("gen read = %q", b[:n])
	}
	if _, err := g.WriteAt(&IOCtx{}, []byte("x"), 0); err != errno.EACCES {
		t.Fatalf("gen write = %v", err)
	}
	val := "old"
	c := &CtlFile{
		Get: func() []byte { return []byte(val) },
		Set: func(b []byte) error { val = string(b); return nil },
	}
	c.WriteAt(&IOCtx{}, []byte("new"), 0)
	if val != "new" {
		t.Fatalf("ctl set = %q", val)
	}
}

func TestFramebufferIoctlAndPixels(t *testing.T) {
	fb := NewFramebuffer(VScreenInfo{XRes: 64, YRes: 32, BPP: 32})
	io := &IOCtx{}
	arg := make([]byte, 12)
	if _, err := fb.Ioctl(io, FBIOGET_VSCREENINFO, arg); err != nil {
		t.Fatal(err)
	}
	info, _ := DecodeVScreenInfo(arg)
	if info.XRes != 64 || info.YRes != 32 || info.BPP != 32 {
		t.Fatalf("info = %+v", info)
	}
	// Change the mode.
	if _, err := fb.Ioctl(io, FBIOPUT_VSCREENINFO, VScreenInfo{XRes: 16, YRes: 16, BPP: 32}.Encode()); err != nil {
		t.Fatal(err)
	}
	if len(fb.Pixels()) != 16*16*4 {
		t.Fatalf("pixels = %d bytes", len(fb.Pixels()))
	}
	if _, err := fb.Ioctl(io, 0xdead, arg); err != errno.ENOTTY {
		t.Fatalf("unknown ioctl = %v", err)
	}
	if _, err := fb.Ioctl(io, FBIOPUT_VSCREENINFO, VScreenInfo{XRes: 0, YRes: 1, BPP: 32}.Encode()); err != errno.EINVAL {
		t.Fatalf("invalid mode = %v", err)
	}
	fb.WriteAt(io, []byte{9, 9, 9, 9}, 0)
	if fb.MmapBuffer()[0] != 9 {
		t.Fatal("mmap buffer not aliased to pixel writes")
	}
}

// TestFramebufferLazyPixels: pixel memory is allocated on first access,
// yet a fresh framebuffer reads back zeros over its full mode size and
// positional writes land in the memory mmap and Pixels expose.
func TestFramebufferLazyPixels(t *testing.T) {
	mode := VScreenInfo{XRes: 8, YRes: 4, BPP: 16}
	fb := NewFramebuffer(mode)
	if fb.pix != nil {
		t.Fatal("pixel memory allocated before first access")
	}
	if fb.Size() != 8*4*2 {
		t.Fatalf("size = %d, want %d", fb.Size(), 8*4*2)
	}
	io := &IOCtx{}
	buf := bytes.Repeat([]byte{0xff}, 100)
	n, err := fb.ReadAt(io, buf, 0)
	if err != nil || n != 64 || !bytes.Equal(buf[:n], make([]byte, 64)) {
		t.Fatalf("fresh read = %d, %v, %x", n, err, buf[:n])
	}
	if _, err := fb.WriteAt(io, []byte{1, 2, 3}, 61); err != nil {
		t.Fatal(err)
	}
	if got := fb.MmapBuffer(); len(got) != 64 || !bytes.Equal(got[61:], []byte{1, 2, 3}) {
		t.Fatalf("mmap buffer = %x", got)
	}
	if got := fb.Pixels(); &got[0] != &fb.MmapBuffer()[0] {
		t.Fatal("Pixels and MmapBuffer are not the same memory")
	}
	// A new mode drops the old pixels.
	if _, err := fb.Ioctl(io, FBIOPUT_VSCREENINFO, VScreenInfo{XRes: 2, YRes: 2, BPP: 8}.Encode()); err != nil {
		t.Fatal(err)
	}
	if got := fb.MmapBuffer(); !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("after mode change = %x, want 4 zero bytes", got)
	}
}

// refWrite applies a pwrite of data at off to the reference model: a
// plain slice that grows with explicit zero bytes. Writing nothing
// leaves it alone, wherever off is.
func refWrite(ref, data []byte, off int64) []byte {
	if len(data) == 0 {
		return ref
	}
	if end := off + int64(len(data)); end > int64(len(ref)) {
		ref = append(ref, make([]byte, end-int64(len(ref)))...)
	}
	copy(ref[off:], data)
	return ref
}

// refTruncate resizes the reference model; growth appends zero bytes.
func refTruncate(ref []byte, size int64) []byte {
	if size <= int64(len(ref)) {
		return ref[:size]
	}
	return append(ref, make([]byte, size-int64(len(ref)))...)
}

// fileOp is one mutation for the file property tests and FuzzFileOps:
// a truncate to trunc when trunc >= 0, otherwise data stored at off, by
// Share when share is set and by Pwrite otherwise.
type fileOp struct {
	data  []byte
	off   int64
	trunc int64
	share bool
}

// apply runs op on f; a Pwrite is charged to io and must write all of
// op.data.
func (op fileOp) apply(io *IOCtx, f *File) error {
	switch {
	case op.trunc >= 0:
		return f.Node.Truncate(op.trunc)
	case op.share:
		return Share(f.Node, op.off, op.data)
	}
	n, err := f.Pwrite(io, op.data, op.off)
	if err == nil && n != len(op.data) {
		err = fmt.Errorf("pwrite wrote %d of %d bytes", n, len(op.data))
	}
	return err
}

// model applies op to the reference model.
func (op fileOp) model(ref []byte) []byte {
	if op.trunc >= 0 {
		return refTruncate(ref, op.trunc)
	}
	return refWrite(ref, op.data, op.off)
}

// lent keeps every buffer handed to Share beside a copy of its bytes.
type lent [][2][]byte

func (l *lent) add(op fileOp) {
	if op.share {
		*l = append(*l, [2][]byte{op.data, bytes.Clone(op.data)})
	}
}

// intact reports whether no file operation wrote through a borrowed page.
func (l lent) intact() bool {
	for _, b := range l {
		if !bytes.Equal(b[0], b[1]) {
			return false
		}
	}
	return true
}

// randomFileOp draws one mutation for the file property tests: a write
// near the start, a write far past EOF that leaves a hole, a truncate
// that shrinks or grows the file, or a Share of up to three pages at a
// page-aligned or unaligned offset. A shrink followed by a later growth
// must read zeros where the old bytes were, and a later write into a
// shared page must not reach the shared buffer.
func randomFileOp(rng *rand.Rand, size int64) fileOp {
	op := fileOp{trunc: -1}
	switch rng.Intn(6) {
	case 0: // far past EOF
		op.off = size + int64(rng.Intn(1<<16))
		op.data = make([]byte, rng.Intn(512))
	case 1: // shrink or grow
		op.trunc = int64(rng.Intn(int(2*size) + 1024))
		return op
	case 2: // share
		op.share = true
		op.off = int64(rng.Intn(4))*PageSize + int64(rng.Intn(2)*rng.Intn(PageSize))
		op.data = make([]byte, rng.Intn(3*PageSize+1))
	default:
		op.off = int64(rng.Intn(2048))
		op.data = make([]byte, rng.Intn(256))
	}
	rng.Read(op.data)
	return op
}

// Property: a tmpfs file behaves exactly like a growable byte slice
// under random pwrite/share/pread/truncate sequences, including writes
// far past EOF and shrinks followed by re-extension, and never changes
// a buffer it borrowed.
func TestTmpfsMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewVFS()
		NewTmpfs().Mount(v, "/t")
		file, err := v.Open("/t/f", O_RDWR|O_CREAT)
		if err != nil {
			return false
		}
		io := &IOCtx{}
		var ref []byte
		var shared lent
		for op := 0; op < 80; op++ {
			if rng.Intn(2) == 0 {
				op := randomFileOp(rng, int64(len(ref)))
				shared.add(op)
				if op.apply(io, file) != nil {
					return false
				}
				ref = op.model(ref)
				continue
			}
			off := int64(rng.Intn(len(ref) + 256))
			l := rng.Intn(1024)
			got := make([]byte, l)
			n, _ := file.Pread(io, got, off)
			want := []byte{}
			if off < int64(len(ref)) {
				want = ref[off:min64(int64(len(ref)), off+int64(l))]
			}
			if n != len(want) || !bytes.Equal(got[:n], want) {
				return false
			}
		}
		all := make([]byte, len(ref)+1)
		n, _ := file.Pread(io, all, 0)
		return file.Node.Size() == int64(len(ref)) && bytes.Equal(all[:n], ref) && shared.intact()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: an SSDFS file returns identical data to tmpfs for the same
// operation sequence (caching must never change contents), truncates,
// shares and writes past EOF included.
func TestSSDFSContentMatchesTmpfs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine(seed)
		dev := blockdev.New(e, blockdev.DefaultConfig())
		v := NewVFS()
		sfs := NewSSDFS(dev)
		sfs.Mount(v, "/d")
		NewTmpfs().Mount(v, "/t")
		a, _ := v.Open("/d/f", O_RDWR|O_CREAT)
		b, _ := v.Open("/t/f", O_RDWR|O_CREAT)
		io := &IOCtx{}
		var shared lent
		for i := 0; i < 60; i++ {
			op := fileOp{trunc: -1}
			if rng.Intn(2) == 0 {
				op = randomFileOp(rng, b.Node.Size())
			} else {
				op.off = int64(rng.Intn(16384))
				op.data = make([]byte, rng.Intn(4096))
				rng.Read(op.data)
			}
			shared.add(op)
			op.apply(io, a)
			op.apply(io, b)
			if rng.Intn(4) == 0 {
				sfs.DropCaches()
			}
			if a.Node.Size() != b.Node.Size() {
				return false
			}
			ra := make([]byte, 4096)
			rb := make([]byte, 4096)
			ro := int64(rng.Intn(int(b.Node.Size()) + 512))
			na, _ := a.Pread(io, ra, ro)
			nb, _ := b.Pread(io, rb, ro)
			if na != nb || !bytes.Equal(ra[:na], rb[:nb]) {
				return false
			}
		}
		return shared.intact()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Appending a file in 4 KiB pwrites must cost amortised linear time and
// memory: the total bytes allocated while building a 32 MiB file stay
// within 3x its size (each page is allocated once, about 1x, and the
// page table's capacity doubling adds 16 B per page; growing by
// single-byte appends allocated about 6x).
func TestAppendAllocatesLinearly(t *testing.T) {
	const size, chunk = 32 << 20, 4096
	dev := blockdev.New(sim.NewEngine(1), blockdev.DefaultConfig())
	for _, c := range []struct {
		name string
		fs   interface{ NewFile() FileNode }
	}{{"tmpfs", NewTmpfs()}, {"ssdfs", NewSSDFS(dev)}} {
		t.Run(c.name, func(t *testing.T) {
			f := NewFile(c.fs.NewFile(), O_RDWR, "/f")
			buf := make([]byte, chunk)
			io := &IOCtx{}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for off := int64(0); off < size; off += chunk {
				if _, err := f.Pwrite(io, buf, off); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if f.Node.Size() != size {
				t.Fatalf("size %d, want %d", f.Node.Size(), size)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*size {
				t.Fatalf("appending %d MiB allocated %d MiB, want <= %d MiB",
					size>>20, alloc>>20, 3*size>>20)
			}
		})
	}
}

// TestFileGrowthCapped: a write whose end wraps past MaxInt64, a write
// ending one byte past MaxFileSize and a truncate one byte past it all
// fail with EFBIG and leave the file as it was; the cap itself is never
// reached, so the test asks the host for no large buffer.
func TestFileGrowthCapped(t *testing.T) {
	for _, c := range benchFileSystems() {
		t.Run(c.name, func(t *testing.T) {
			f := c.newFile()
			io := &IOCtx{}
			if _, err := f.WriteAt(io, []byte("abc"), 0); err != nil {
				t.Fatal(err)
			}
			for _, w := range []struct {
				off int64
				n   int
			}{
				{math.MaxInt64 - 3, 8}, // off+n wraps negative
				{MaxFileSize - 1, 2},
				{MaxFileSize + 1, 0},
			} {
				if n, err := f.WriteAt(io, make([]byte, w.n), w.off); err != errno.EFBIG || n != 0 {
					t.Errorf("WriteAt(%d bytes at %d) = %d, %v; want 0, EFBIG", w.n, w.off, n, err)
				}
			}
			if err := f.Truncate(MaxFileSize + 1); err != errno.EFBIG {
				t.Errorf("Truncate(MaxFileSize+1) = %v, want EFBIG", err)
			}
			if err := f.Truncate(math.MaxInt64); err != errno.EFBIG {
				t.Errorf("Truncate(MaxInt64) = %v, want EFBIG", err)
			}
			if _, err := f.WriteAt(io, []byte("x"), -1); err != errno.EINVAL {
				t.Errorf("WriteAt at -1 = %v, want EINVAL", err)
			}
			if err := f.Truncate(-1); err != errno.EINVAL {
				t.Errorf("Truncate(-1) = %v, want EINVAL", err)
			}
			if f.Size() != 3 {
				t.Errorf("size after rejected growth = %d, want 3", f.Size())
			}
		})
	}
}

// appendsPerFile bounds BenchmarkFileAppend4K's file at 16 MiB, so the
// benchmark's memory does not grow with b.N.
const appendsPerFile = 4096

// benchFileSystems returns fresh-file constructors for the two data
// file systems.
func benchFileSystems() []struct {
	name    string
	newFile func() FileNode
} {
	dev := blockdev.New(sim.NewEngine(1), blockdev.DefaultConfig())
	return []struct {
		name    string
		newFile func() FileNode
	}{
		{"tmpfs", NewTmpfs().NewFile},
		{"ssdfs", NewSSDFS(dev).NewFile},
	}
}

// BenchmarkFileAppend4K measures one 4 KiB append to a growing file,
// file growth included.
func BenchmarkFileAppend4K(b *testing.B) {
	for _, c := range benchFileSystems() {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 4096)
			io := &IOCtx{}
			var f FileNode
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%appendsPerFile == 0 {
					f = c.newFile()
				}
				f.WriteAt(io, buf, int64(i%appendsPerFile)*int64(len(buf)))
			}
		})
	}
}

// BenchmarkWriteFile64M measures copying a 64 MiB input into an empty
// file in one write. Machine.WriteFile stages its input with Share
// instead, which borrows the pages rather than copying them.
func BenchmarkWriteFile64M(b *testing.B) {
	data := make([]byte, 64<<20)
	for _, c := range benchFileSystems() {
		b.Run(c.name, func(b *testing.B) {
			io := &IOCtx{}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.newFile().WriteAt(io, data, 0)
			}
		})
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
