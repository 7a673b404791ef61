package syscalls

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"genesys/internal/errno"
	"genesys/internal/fs"
	"genesys/internal/sim"
)

func TestStatAndFstat(t *testing.T) {
	ev := newEnv(t)
	open := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_RDWR}, Buf: []byte("/tmp/s")}
	ev.call(t, open)
	fd := uint64(open.Ret)
	wr := &Request{NR: SYS_write, Args: [6]uint64{fd, 7}, Buf: []byte("7 bytes")}
	stBuf := make([]byte, StatSize+len("/tmp/s"))
	copy(stBuf[StatSize:], "/tmp/s")
	st := &Request{NR: SYS_stat, Buf: stBuf}
	fstBuf := make([]byte, StatSize)
	fst := &Request{NR: SYS_fstat, Args: [6]uint64{fd}, Buf: fstBuf}
	ev.callSeq(t, wr, st, fst)
	size, isDir, err := DecodeStat(stBuf)
	if err != nil || size != 7 || isDir {
		t.Fatalf("stat = %d, %v, %v", size, isDir, err)
	}
	size, _, _ = DecodeStat(fstBuf)
	if size != 7 {
		t.Fatalf("fstat size = %d", size)
	}
	// stat of a directory
	dirBuf := make([]byte, StatSize+4)
	copy(dirBuf[StatSize:], "/tmp")
	std := &Request{NR: SYS_stat, Buf: dirBuf}
	ev.call(t, std)
	if _, isDir, _ = DecodeStat(dirBuf); !isDir {
		t.Fatal("stat(/tmp) not a dir")
	}
	// stat of missing path
	missBuf := make([]byte, StatSize+8)
	copy(missBuf[StatSize:], "/tmp/nox")
	miss := &Request{NR: SYS_stat, Buf: missBuf}
	ev.call(t, miss)
	if miss.Err != errno.ENOENT {
		t.Fatalf("stat missing = %v", miss.Err)
	}
}

func TestDupSharesOffset(t *testing.T) {
	ev := newEnv(t)
	open := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_RDWR}, Buf: []byte("/tmp/d")}
	ev.call(t, open)
	fd := uint64(open.Ret)
	dup := &Request{NR: SYS_dup, Args: [6]uint64{fd}}
	wr := &Request{NR: SYS_write, Args: [6]uint64{fd, 3}, Buf: []byte("abc")}
	ev.callSeq(t, dup, wr)
	fd2 := uint64(dup.Ret)
	// Writing via the dup continues at the shared offset.
	wr2 := &Request{NR: SYS_write, Args: [6]uint64{fd2, 3}, Buf: []byte("def")}
	ev.call(t, wr2)
	f, _ := ev.pr.FDs.Get(int(fd))
	if f.Pos() != 6 {
		t.Fatalf("shared offset = %d, want 6", f.Pos())
	}
	data := make([]byte, 8)
	rd := &Request{NR: SYS_pread64, Args: [6]uint64{fd, 6, 0}, Buf: data}
	ev.call(t, rd)
	if string(data[:6]) != "abcdef" {
		t.Fatalf("content = %q", data[:6])
	}
}

func TestReadvWritev(t *testing.T) {
	ev := newEnv(t)
	open := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_RDWR}, Buf: []byte("/tmp/v")}
	ev.call(t, open)
	fd := uint64(open.Ret)
	// writev of two segments: "hello" (5) and "world!" (6).
	buf := make([]byte, 16+11)
	binary.LittleEndian.PutUint64(buf[0:], 5)
	binary.LittleEndian.PutUint64(buf[8:], 6)
	copy(buf[16:], "helloworld!")
	wv := &Request{NR: SYS_writev, Args: [6]uint64{fd, 2}, Buf: buf}
	sk := &Request{NR: SYS_lseek, Args: [6]uint64{fd, 0, fs.SeekSet}}
	// readv back into 3+8 segments.
	rbuf := make([]byte, 16+11)
	binary.LittleEndian.PutUint64(rbuf[0:], 3)
	binary.LittleEndian.PutUint64(rbuf[8:], 8)
	rv := &Request{NR: SYS_readv, Args: [6]uint64{fd, 2}, Buf: rbuf}
	ev.callSeq(t, wv, sk, rv)
	if wv.Ret != 11 || rv.Ret != 11 {
		t.Fatalf("writev=%d readv=%d", wv.Ret, rv.Ret)
	}
	if string(rbuf[16:16+11]) != "helloworld!" {
		t.Fatalf("readv data = %q", rbuf[16:])
	}
	// Bad iovec count.
	bad := &Request{NR: SYS_readv, Args: [6]uint64{fd, 0}, Buf: rbuf}
	ev.call(t, bad)
	if bad.Err != errno.EINVAL {
		t.Fatalf("bad iovcnt = %v", bad.Err)
	}
}

// TestReadvWritevBadArgs: segment lengths whose sum wraps around must be
// rejected, not trusted to slice the data area.
func TestReadvWritevBadArgs(t *testing.T) {
	ev := newEnv(t)
	open := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_RDWR}, Buf: []byte("/tmp/v")}
	ev.call(t, open)
	fd := uint64(open.Ret)
	for _, nr := range []int{SYS_writev, SYS_readv} {
		// MaxInt64 + 2 wraps to a negative total, which any data area covers.
		buf := make([]byte, 16+4)
		binary.LittleEndian.PutUint64(buf[0:], math.MaxInt64)
		binary.LittleEndian.PutUint64(buf[8:], 2)
		r := &Request{NR: nr, Args: [6]uint64{fd, 2}, Buf: buf}
		ev.call(t, r)
		if r.Err != errno.EINVAL {
			t.Fatalf("nr %d with wrapping segment lengths = %v, want EINVAL", nr, r.Err)
		}
	}
}

func TestFtruncateUnlinkFsync(t *testing.T) {
	ev := newEnv(t)
	open := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_RDWR}, Buf: []byte("/tmp/t")}
	ev.call(t, open)
	fd := uint64(open.Ret)
	wr := &Request{NR: SYS_write, Args: [6]uint64{fd, 8}, Buf: []byte("12345678")}
	tr := &Request{NR: SYS_ftruncate, Args: [6]uint64{fd, 3}}
	fsy := &Request{NR: SYS_fsync, Args: [6]uint64{fd}}
	ev.callSeq(t, wr, tr, fsy)
	f, _ := ev.pr.FDs.Get(int(fd))
	if f.Node.Size() != 3 {
		t.Fatalf("size after ftruncate = %d", f.Node.Size())
	}
	if fsy.Err != errno.OK {
		t.Fatalf("fsync = %v", fsy.Err)
	}
	un := &Request{NR: SYS_unlink, Buf: []byte("/tmp/t")}
	ev.call(t, un)
	if _, err := ev.os.VFS.Resolve("/tmp/t"); err != errno.ENOENT {
		t.Fatalf("after unlink: %v", err)
	}
	un2 := &Request{NR: SYS_unlink, Buf: []byte("/tmp/t")}
	ev.call(t, un2)
	if un2.Err != errno.ENOENT {
		t.Fatalf("double unlink = %v", un2.Err)
	}
}

func TestGetdents(t *testing.T) {
	ev := newEnv(t)
	for _, n := range []string{"bb", "aa", "cc"} {
		op := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_WRONLY}, Buf: []byte("/tmp/" + n)}
		ev.call(t, op)
	}
	buf := make([]byte, 64)
	copy(buf, "/tmp")
	gd := &Request{NR: SYS_getdents64, Buf: buf}
	ev.call(t, gd)
	names := strings.Fields(strings.TrimRight(string(buf[:gd.Ret]), "\x00"))
	if len(names) != 3 || names[0] != "aa" || names[2] != "cc" {
		t.Fatalf("getdents = %v", names)
	}
}

func TestClockGettimeNanosleepGetpidUname(t *testing.T) {
	ev := newEnv(t)
	var before, after int64
	ev.e.Spawn("caller", func(p *sim.Proc) {
		c := &Ctx{P: p, OS: ev.os, Proc: ev.pr}
		r1 := &Request{NR: SYS_clock_gettime}
		Dispatch(c, r1)
		before = r1.Ret
		Dispatch(c, &Request{NR: SYS_nanosleep, Args: [6]uint64{uint64(5 * sim.Millisecond)}})
		r2 := &Request{NR: SYS_clock_gettime}
		Dispatch(c, r2)
		after = r2.Ret
	})
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
	if after-before != int64(5*sim.Millisecond) {
		t.Fatalf("nanosleep advanced %d ns", after-before)
	}
	pid := &Request{NR: SYS_getpid}
	ev.call(t, pid)
	if pid.Ret != int64(ev.pr.PID) {
		t.Fatalf("getpid = %d", pid.Ret)
	}
	un := &Request{NR: SYS_uname, Buf: make([]byte, 64)}
	ev.call(t, un)
	if !strings.Contains(string(un.Buf[:un.Ret]), "GenesysSim") {
		t.Fatalf("uname = %q", un.Buf[:un.Ret])
	}
}

func TestPipe2EndToEnd(t *testing.T) {
	ev := newEnv(t)
	pp := &Request{NR: SYS_pipe2}
	ev.call(t, pp)
	if pp.Err != errno.OK {
		t.Fatal(pp.Err)
	}
	rfd, wfd := pp.OutArgs[0], pp.OutArgs[1]

	var got []byte
	ev.e.Spawn("writer", func(p *sim.Proc) {
		c := &Ctx{P: p, OS: ev.os, Proc: ev.pr}
		Dispatch(c, &Request{NR: SYS_write, Args: [6]uint64{wfd, 9}, Buf: []byte("pipedata!")})
		Dispatch(c, &Request{NR: SYS_close, Args: [6]uint64{wfd}})
	})
	ev.e.Spawn("reader", func(p *sim.Proc) {
		c := &Ctx{P: p, OS: ev.os, Proc: ev.pr}
		buf := make([]byte, 32)
		rd := &Request{NR: SYS_read, Args: [6]uint64{rfd, 32}, Buf: buf}
		Dispatch(c, rd)
		got = append(got, buf[:rd.Ret]...)
		// After the writer closes, read returns EOF (0).
		rd2 := &Request{NR: SYS_read, Args: [6]uint64{rfd, 32}, Buf: buf}
		Dispatch(c, rd2)
		if rd2.Ret != 0 {
			t.Errorf("read after writer close = %d", rd2.Ret)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("pipedata!")) {
		t.Fatalf("pipe data = %q", got)
	}
}

func TestPipeBlockingBackpressure(t *testing.T) {
	ev := newEnv(t)
	p := fs.NewPipe(ev.e, 8) // tiny buffer
	rf, wf := p.Ends()
	var writerDone, readerStart sim.Time
	ev.e.Spawn("writer", func(pp *sim.Proc) {
		io := &fs.IOCtx{P: pp}
		wf.Write(io, []byte("0123456789abcdef")) // 16 > capacity 8: blocks
		writerDone = pp.Now()
	})
	ev.e.Spawn("reader", func(pp *sim.Proc) {
		pp.Sleep(sim.Millisecond)
		readerStart = pp.Now()
		io := &fs.IOCtx{P: pp}
		buf := make([]byte, 16)
		n1, _ := rf.Read(io, buf)
		n2, _ := rf.Read(io, buf[n1:])
		if n1+n2 != 16 {
			t.Errorf("read %d+%d", n1, n2)
		}
		if string(buf) != "0123456789abcdef" {
			t.Errorf("data = %q", buf)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
	if writerDone < readerStart {
		t.Fatalf("writer finished (%v) before reader drained (%v): no backpressure",
			writerDone, readerStart)
	}
}

func TestPipeEPIPE(t *testing.T) {
	ev := newEnv(t)
	p := fs.NewPipe(ev.e, 8)
	rf, wf := p.Ends()
	fs.ClosePipeEnd(rf)
	ev.e.Spawn("writer", func(pp *sim.Proc) {
		io := &fs.IOCtx{P: pp}
		if _, err := wf.Write(io, []byte("x")); err != errno.EPIPE {
			t.Errorf("write to closed pipe = %v", err)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
}
