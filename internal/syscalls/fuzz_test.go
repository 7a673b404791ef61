package syscalls

import (
	"errors"
	"testing"

	"genesys/internal/fs"
	"genesys/internal/netstack"
	"genesys/internal/sim"
)

// fuzzNRs are the handlers FuzzSyscallArgs drives: the fs calls that
// take counts, offsets and sizes, the socket data calls, poll and
// nanosleep. mmap is left out: its lengths size guest memory, which is
// the vmm's to bound.
var fuzzNRs = [...]int{
	SYS_read, SYS_write, SYS_pread64, SYS_pwrite64, SYS_lseek, SYS_ftruncate,
	SYS_readv, SYS_writev, SYS_sendto, SYS_recvfrom, SYS_poll, SYS_nanosleep,
}

// foldGrowth keeps a file-growth target the size cap allows from costing
// real host memory: values between 1 MiB and fs.MaxFileSize fold into
// the first MiB. Larger and negative values, the ones a handler must
// reject, pass through unchanged.
func foldGrowth(v uint64) uint64 {
	if v > 1<<20 && v <= uint64(fs.MaxFileSize) {
		return v % (1 << 20)
	}
	return v
}

// FuzzSyscallArgs issues one call with arbitrary arguments and buffer
// against a process holding a regular file (fd 3), a bound datagram
// socket with a datagram waiting (fd 4), an unconnected stream socket
// (fd 5) and the datagram's sender (fd 6). The only property checked is
// that the handler returns: a panic anywhere in the call fails. A call
// that blocks forever (a receive with nothing to receive) ends the run as
// a deadlock, which is allowed. The seed corpus in testdata/fuzz holds
// one well-formed call per handler.
func FuzzSyscallArgs(f *testing.F) {
	f.Fuzz(func(t *testing.T, nrSel uint8, a0, a1, a2, a3, a4 uint64, buf []byte) {
		ev := newEnv(t)
		open := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_RDWR}, Buf: []byte("/tmp/f")}
		fill := &Request{NR: SYS_write, Args: [6]uint64{3, 11}, Buf: []byte("hello world")}
		dgram := &Request{NR: SYS_socket, Args: [6]uint64{uint64(netstack.Dgram)}}
		bind := &Request{NR: SYS_bind, Args: [6]uint64{4, 7000}}
		stream := &Request{NR: SYS_socket, Args: [6]uint64{uint64(netstack.Stream)}}
		sender := &Request{NR: SYS_socket, Args: [6]uint64{uint64(netstack.Dgram)}}
		send := &Request{NR: SYS_sendto, Args: [6]uint64{6, 4, 0, 0, 7000}, Buf: []byte("ping")}
		ev.callSeq(t, open, fill, dgram, bind, stream, sender, send)
		for _, r := range []*Request{open, fill, dgram, bind, stream, sender, send} {
			if r.Err != 0 {
				t.Fatalf("set-up %s = %v", Name(r.NR), r.Err)
			}
		}

		nr := fuzzNRs[int(nrSel)%len(fuzzNRs)]
		r := &Request{NR: nr, Args: [6]uint64{a0, a1, a2, a3, a4}, Buf: buf}
		switch nr {
		case SYS_pwrite64:
			r.Args[2] = foldGrowth(r.Args[2])
		case SYS_ftruncate:
			r.Args[1] = foldGrowth(r.Args[1])
		}
		ev.e.Spawn("caller", func(p *sim.Proc) {
			Dispatch(&Ctx{P: p, OS: ev.os, Proc: ev.pr}, r)
		})
		var dl *sim.ErrDeadlock
		if err := ev.e.Run(); err != nil && !errors.As(err, &dl) {
			t.Fatalf("%s%v with %d-byte buffer: %v", Name(nr), r.Args, len(buf), err)
		}
	})
}
