package fs

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"genesys/internal/blockdev"
	"genesys/internal/errno"
	"genesys/internal/sim"
)

// TestSharePagesCopyOnWrite: a file borrows the whole pages Share hands
// it and copies one before a write into it or a truncate that cuts it,
// so the caller's buffer never changes. Every step also runs on a twin
// file staged by a zero-IOCtx Pwrite instead of Share; the two must read
// alike and carry the same cached flags.
func TestSharePagesCopyOnWrite(t *testing.T) {
	for _, name := range []string{"tmpfs", "ssdfs"} {
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine(1)
			newFile := NewTmpfs().NewFile
			if name == "ssdfs" {
				newFile = NewSSDFS(blockdev.New(e, blockdev.DefaultConfig())).NewFile
			}
			buf := make([]byte, 4*PageSize+100)
			rand.New(rand.NewSource(1)).Read(buf)
			sum := sha256.Sum256(buf)
			shared, twin := newFile().(*regFile), newFile().(*regFile)
			var ref []byte
			check := func(step string, borrowed ...int) {
				t.Helper()
				for _, f := range []*regFile{shared, twin} {
					got := make([]byte, f.Size())
					if n, err := f.ReadAt(&IOCtx{}, got, 0); err != nil || n != len(ref) || !bytes.Equal(got, ref) {
						t.Fatalf("%s: file reads %d bytes (%v), not the %d expected", step, n, err, len(ref))
					}
				}
				if sha256.Sum256(buf) != sum {
					t.Fatalf("%s: the shared buffer changed", step)
				}
				if got, want := cachedFlags(shared), cachedFlags(twin); got != want {
					t.Fatalf("%s: cached flags %s, want %s as after a zero-IOCtx write", step, got, want)
				}
				for i, p := range shared.pages {
					own := !p.shared || &p.data[0] != &buf[i*PageSize]
					if want := !slices.Contains(borrowed, i); own != want {
						t.Fatalf("%s: page %d owns its data = %v, want %v", step, i, own, want)
					}
				}
			}
			// write runs fn in a process, so the write is charged and, on
			// SSDFS, caches the pages it touches.
			write := func(fn func(io *IOCtx)) {
				e.Spawn("writer", func(p *sim.Proc) { fn(&IOCtx{P: p}) })
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			// Cache pages 1 and 2 (on SSDFS) before sharing over them.
			write(func(io *IOCtx) {
				for _, f := range []*regFile{shared, twin} {
					f.WriteAt(io, make([]byte, 2*PageSize), PageSize)
				}
			})
			ref = refWrite(ref, make([]byte, 2*PageSize), PageSize)

			Share(shared, 0, buf)
			twin.WriteAt(&IOCtx{}, buf, 0)
			ref = refWrite(ref, buf, 0)
			check("share", 0, 1, 2, 3)

			w := bytes.Repeat([]byte{0xab}, 300)
			write(func(io *IOCtx) {
				for _, f := range []*regFile{shared, twin} {
					f.WriteAt(io, w, PageSize-150)
				}
			})
			ref = refWrite(ref, w, PageSize-150)
			check("pwrite across pages 0 and 1", 2, 3)

			for _, f := range []*regFile{shared, twin} {
				f.Truncate(2*PageSize + 10)
			}
			ref = refTruncate(ref, 2*PageSize+10)
			check("shrink into page 2")

			for _, f := range []*regFile{shared, twin} {
				f.Truncate(4 * PageSize)
			}
			ref = refTruncate(ref, 4*PageSize)
			check("re-extend")
		})
	}
}

// cachedFlags renders a file's page-cache residency, one digit a page.
func cachedFlags(f *regFile) string {
	b := bytes.Repeat([]byte("0"), len(f.pages))
	for i, p := range f.pages {
		if p.cached {
			b[i] = '1'
		}
	}
	return string(b)
}

// TestTruncateAllocatesNoData: growing a file by Truncate adds holes, so
// a 256 MiB file (Figure 7's largest) costs its page table, not its
// bytes, and still reads back zeros.
func TestTruncateAllocatesNoData(t *testing.T) {
	const size = 256 << 20
	for _, c := range benchFileSystems() {
		t.Run(c.name, func(t *testing.T) {
			f := c.newFile()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := f.Truncate(size); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
				t.Fatalf("Truncate(%d MiB) allocated %d MiB, want under 8 MiB", size>>20, alloc>>20)
			}
			buf := make([]byte, 1<<20)
			for _, off := range []int64{0, size/2 + 12345, size - int64(len(buf))} {
				for i := range buf {
					buf[i] = 0xff
				}
				if n, err := f.ReadAt(&IOCtx{}, buf, off); err != nil || n != len(buf) || !bytes.Equal(buf, make([]byte, len(buf))) {
					t.Fatalf("read at %d = %d, %v, or not all zeros", off, n, err)
				}
			}
		})
	}
}

// TestZeroLengthWriteKeepsSize: a pwrite or Share of no bytes past EOF
// leaves the file as it was, as on Linux; a negative offset is still
// EINVAL, and Truncate still grows the file.
func TestZeroLengthWriteKeepsSize(t *testing.T) {
	for _, c := range benchFileSystems() {
		t.Run(c.name, func(t *testing.T) {
			f := NewFile(c.newFile(), O_RDWR, "/f")
			if n, err := f.Pwrite(&IOCtx{}, nil, 1000); n != 0 || err != nil {
				t.Fatalf("pwrite(nil at 1000) = %d, %v; want 0, nil", n, err)
			}
			if err := Share(f.Node, 2*PageSize, nil); err != nil {
				t.Fatalf("Share(nil at %d) = %v", 2*PageSize, err)
			}
			if got := f.Node.Size(); got != 0 {
				t.Fatalf("size after zero-length writes = %d, want 0", got)
			}
			if _, err := f.Node.WriteAt(&IOCtx{}, nil, -1); err != errno.EINVAL {
				t.Fatalf("WriteAt(nil at -1) = %v, want EINVAL", err)
			}
			if err := f.Node.Truncate(1000); err != nil || f.Node.Size() != 1000 {
				t.Fatalf("Truncate(1000) = %v, size %d", err, f.Node.Size())
			}
		})
	}
}

// fuzzOps bounds the operations one FuzzFileOps input decodes to.
const fuzzOps = 64

// FuzzFileOps decodes its input, five bytes an operation, into Pwrite,
// Truncate, Share, DropCaches and Pread, which one process runs on a
// tmpfs file and an SSDFS file. Every read, both files' final contents
// and every shared buffer are checked against the reference model.
// Offsets and sizes fold into the first 4 MiB, so no input asks the host
// for a large buffer. The seed corpus is in testdata/fuzz.
func FuzzFileOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		e := sim.NewEngine(1)
		ssd := NewSSDFS(blockdev.New(e, blockdev.DefaultConfig()))
		files := []*File{NewFile(NewTmpfs().NewFile(), O_RDWR, "/t"), NewFile(ssd.NewFile(), O_RDWR, "/d")}
		var ref []byte
		var shared lent
		e.Spawn("ops", func(p *sim.Proc) {
			io := &IOCtx{P: p}
			for i := 0; i < fuzzOps && len(in) >= 5; i, in = i+1, in[5:] {
				pos := int64(in[1]) | int64(in[2])<<8 | int64(in[3]&0x3f)<<16
				n := int(in[4]) * 97 // up to six pages
				op := fileOp{off: pos, trunc: -1}
				switch in[0] % 5 {
				case 1:
					op.trunc = pos
				case 2:
					op.share = true
					if in[4]&1 == 0 {
						op.off &^= PageSize - 1
					}
				case 3:
					ssd.DropCaches()
					continue
				case 4:
					want := ref[min(pos, int64(len(ref))):min(pos+int64(n), int64(len(ref)))]
					for _, fl := range files {
						got := make([]byte, n)
						if m, err := fl.Pread(io, got, pos); err != nil || !bytes.Equal(got[:m], want) {
							t.Errorf("op %d: %s pread(%d at %d) = %d, %v; differs from the model", i, fl.Path, n, pos, m, err)
							return
						}
					}
					continue
				}
				if op.trunc < 0 {
					op.data = make([]byte, n)
					for j := range op.data {
						op.data[j] = byte(i*31 + j*7 + 1)
					}
				}
				shared.add(op)
				for _, fl := range files {
					if err := op.apply(io, fl); err != nil {
						t.Errorf("op %d on %s: %v", i, fl.Path, err)
						return
					}
				}
				ref = op.model(ref)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for _, fl := range files {
			got := make([]byte, len(ref))
			if n, _ := fl.Pread(&IOCtx{}, got, 0); fl.Node.Size() != int64(len(ref)) || n != len(ref) || !bytes.Equal(got, ref) {
				t.Fatalf("%s: final contents differ from the model", fl.Path)
			}
		}
		if !shared.intact() {
			t.Fatal("a shared buffer changed")
		}
	})
}
