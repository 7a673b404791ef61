// Package syscalls implements the simulated kernel's system call layer:
// Linux x86-64 syscall numbers, the dispatch table, the implementations
// of every system call the paper exercises through GENESYS (filesystem,
// networking, memory management, signals, resource querying and device
// control — §IV "Readily-implementable"), and the classification of the
// full Linux syscall table that Section IV and Table II summarize.
package syscalls

import (
	"encoding/binary"
	"math"

	"genesys/internal/cpu"
	"genesys/internal/errno"
	"genesys/internal/fault"
	"genesys/internal/fs"
	"genesys/internal/netstack"
	"genesys/internal/obs"
	"genesys/internal/oskern"
	"genesys/internal/sig"
	"genesys/internal/sim"
	"genesys/internal/vmm"
)

// Linux x86-64 system call numbers for the calls GENESYS implements.
const (
	SYS_read            = 0
	SYS_write           = 1
	SYS_open            = 2
	SYS_close           = 3
	SYS_lseek           = 8
	SYS_mmap            = 9
	SYS_munmap          = 11
	SYS_ioctl           = 16
	SYS_pread64         = 17
	SYS_pwrite64        = 18
	SYS_madvise         = 28
	SYS_socket          = 41
	SYS_sendto          = 44
	SYS_recvfrom        = 45
	SYS_bind            = 49
	SYS_getrusage       = 98
	SYS_rt_sigqueueinfo = 129
)

// Request is one system call as staged in a GENESYS syscall-area slot:
// the call number, up to six integer arguments, and the associated
// syscall buffer (the shared-memory data area the paper describes in
// §VI): the data source for writes, the destination for reads, and the
// in/out argument struct for ioctl and getrusage.
type Request struct {
	NR   int
	Args [6]uint64
	Buf  []byte

	// Results, filled by Dispatch.
	Ret int64
	Err errno.Errno

	// OutArgs carries out-of-band result arguments (e.g. recvfrom's
	// source port).
	OutArgs [2]uint64

	// Trace is the causal trace ID GENESYS assigned at slot-claim time
	// (0 for untraced host-side calls). Dispatch propagates it into the
	// back-end spans the call generates.
	Trace uint64
}

// Ctx is the execution context of a system call: the OS worker thread
// (or CPU application thread) executing it, and the process whose
// context it borrows — GPU threads have no kernel representation, so
// every GPU system call runs against the task struct of the CPU process
// that launched the kernel (§VI).
type Ctx struct {
	P    *sim.Proc
	OS   *oskern.OS
	Proc *oskern.Process

	// Events, set when GENESYS dispatches the call, receives socket
	// operation spans linked by Trace — the trace ID of the request
	// currently being dispatched, which storage transfers carry too.
	Events *obs.EventLog
	Trace  uint64
}

func (c *Ctx) io() *fs.IOCtx {
	return &fs.IOCtx{P: c.P, CPU: c.OS.CPU, Prio: cpu.PrioKernel, Trace: c.Trace}
}

// Handler implements one system call.
type Handler func(c *Ctx, r *Request)

var table = map[int]Handler{
	SYS_read:            sysRead,
	SYS_write:           sysWrite,
	SYS_open:            sysOpen,
	SYS_close:           sysClose,
	SYS_lseek:           sysLseek,
	SYS_mmap:            sysMmap,
	SYS_munmap:          sysMunmap,
	SYS_ioctl:           sysIoctl,
	SYS_pread64:         sysPread,
	SYS_pwrite64:        sysPwrite,
	SYS_madvise:         sysMadvise,
	SYS_socket:          sysSocket,
	SYS_sendto:          sysSendto,
	SYS_recvfrom:        sysRecvfrom,
	SYS_bind:            sysBind,
	SYS_getrusage:       sysGetrusage,
	SYS_rt_sigqueueinfo: sysRtSigqueueinfo,
}

// Implemented reports whether nr has a handler.
func Implemented(nr int) bool {
	_, ok := table[nr]
	return ok
}

// ImplementedCount returns the number of implemented system calls.
func ImplementedCount() int { return len(table) }

// Dispatch executes the request against ctx, filling Ret and Err.
// Functional effects are real (bytes move, sockets queue, pages free);
// time is charged to ctx.P by the underlying substrates.
func Dispatch(c *Ctx, r *Request) {
	h, ok := table[r.NR]
	if !ok {
		r.Ret, r.Err = -1, errno.ENOSYS
		return
	}
	c.Trace = r.Trace
	c.OS.Syscalls++
	if rule, hit := c.OS.Inject.Fire(fault.SyscallErrno); hit {
		// Injected transient failure: the call fails before its handler
		// runs, exactly as an interrupted or resource-starved kernel path
		// would. Restartable callers (gclib, the non-blocking kernel-side
		// restart) absorb it; others see a well-formed errno.
		r.Ret, r.Err = -1, injectedErrno(c.OS.Inject, rule)
		return
	}
	r.Err = errno.OK
	h(c, r)
	if r.Err != errno.OK {
		r.Ret = -1
	}
}

// injectedErrno picks the transient errno for a SyscallErrno injection:
// the rule's Param if it names one, else a deterministic rotation over
// EINTR / EAGAIN / ENOMEM.
func injectedErrno(in *fault.Injector, rule fault.Rule) errno.Errno {
	switch errno.Errno(rule.Param) {
	case errno.EINTR, errno.EAGAIN, errno.ENOMEM:
		return errno.Errno(rule.Param)
	}
	return [3]errno.Errno{errno.EINTR, errno.EAGAIN, errno.ENOMEM}[in.Pick(3)]
}

func fail(r *Request, err error) {
	r.Err = errno.Of(err)
}

// signedArg returns a size or duration argument as the signed value the
// kernel reads it as, or EINVAL when that is negative (a size_t above
// SSIZE_MAX).
func signedArg(v uint64) (int64, error) {
	if v > math.MaxInt64 {
		return 0, errno.EINVAL
	}
	return int64(v), nil
}

// countBuf returns the part of Buf a byte-count argument names: all of
// Buf when the count reaches past it, EINVAL when the count is negative.
func countBuf(r *Request, count uint64) ([]byte, error) {
	n, err := signedArg(count)
	if err != nil {
		return nil, err
	}
	return r.Buf[:min(n, int64(len(r.Buf)))], nil
}

// cstr interprets b as a NUL-terminated pathname (C-string semantics:
// anything past the first zero byte is ignored).
func cstr(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// --- filesystem ---

func sysRead(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	buf, err := countBuf(r, r.Args[1])
	if err != nil {
		fail(r, err)
		return
	}
	n, err := f.Read(c.io(), buf)
	if err != nil {
		fail(r, err)
		return
	}
	r.Ret = int64(n)
}

func sysWrite(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	buf, err := countBuf(r, r.Args[1])
	if err != nil {
		fail(r, err)
		return
	}
	n, err := f.Write(c.io(), buf)
	if err != nil {
		fail(r, err)
		return
	}
	r.Ret = int64(n)
}

func sysPread(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	buf, err := countBuf(r, r.Args[1])
	if err != nil {
		fail(r, err)
		return
	}
	n, err := f.Pread(c.io(), buf, int64(r.Args[2]))
	if err != nil {
		fail(r, err)
		return
	}
	r.Ret = int64(n)
}

func sysPwrite(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	buf, err := countBuf(r, r.Args[1])
	if err != nil {
		fail(r, err)
		return
	}
	n, err := f.Pwrite(c.io(), buf, int64(r.Args[2]))
	if err != nil {
		fail(r, err)
		return
	}
	r.Ret = int64(n)
}

// sysOpen expects the NUL-free pathname in Buf and flags in Args[0].
func sysOpen(c *Ctx, r *Request) {
	path := c.abs(cstr(r.Buf))
	flags := int(r.Args[0])
	f, err := c.OS.VFS.Open(path, flags)
	if err != nil {
		fail(r, err)
		return
	}
	fd, err := c.Proc.FDs.Install(f)
	if err != nil {
		fail(r, err)
		return
	}
	r.Ret = int64(fd)
}

func sysClose(c *Ctx, r *Request) {
	fd := int(int64(r.Args[0]))
	f, err := c.Proc.FDs.Get(fd)
	if err != nil {
		fail(r, err)
		return
	}
	if sock, ok := f.Special.(*netstack.Socket); ok {
		sock.Close()
	}
	if fs.IsPipe(f) {
		fs.ClosePipeEnd(f)
	}
	if err := c.Proc.FDs.Close(fd); err != nil {
		fail(r, err)
	}
}

func sysLseek(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	pos, err := f.Lseek(int64(r.Args[1]), int(r.Args[2]))
	if err != nil {
		fail(r, err)
		return
	}
	r.Ret = pos
}

func sysIoctl(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	ret, err := f.Ioctl(c.io(), r.Args[1], r.Buf)
	if err != nil {
		fail(r, err)
		return
	}
	r.Ret = int64(ret)
}

// --- memory management ---

// sysMmap: Args = [addrHint, length, prot, flags, fd, offset]. A
// non-negative fd maps the device backing that descriptor; fd
// 0xffffffffffffffff (i.e. -1) with MAP_ANONYMOUS semantics maps
// anonymous memory.
func sysMmap(c *Ctx, r *Request) {
	length := int64(r.Args[1])
	fd := int(int64(r.Args[4]))
	if fd >= 0 {
		f, err := c.Proc.FDs.Get(fd)
		if err != nil {
			fail(r, err)
			return
		}
		if f.Device == nil || f.Device.MmapBuffer() == nil {
			fail(r, errno.ENODEV)
			return
		}
		addr, err := c.Proc.MM.MmapDevice(f.Device.MmapBuffer())
		if err != nil {
			fail(r, err)
			return
		}
		r.Ret = int64(addr)
		return
	}
	addr, err := c.Proc.MM.Mmap(length)
	if err != nil {
		fail(r, err)
		return
	}
	r.Ret = int64(addr)
}

func sysMunmap(c *Ctx, r *Request) {
	if err := c.Proc.MM.Munmap(c.P, r.Args[0], int64(r.Args[1])); err != nil {
		fail(r, err)
	}
}

func sysMadvise(c *Ctx, r *Request) {
	err := c.Proc.MM.Madvise(c.P, r.Args[0], int64(r.Args[1]), int(r.Args[2]))
	if err != nil {
		fail(r, err)
	}
}

// RusageSize is the encoded size of the getrusage reply.
const RusageSize = 40

// EncodeRusage packs the usage struct into a 40-byte buffer.
func EncodeRusage(u vmm.Rusage) []byte {
	b := make([]byte, RusageSize)
	binary.LittleEndian.PutUint64(b[0:], uint64(u.MaxRSSBytes))
	binary.LittleEndian.PutUint64(b[8:], uint64(u.RSSBytes))
	binary.LittleEndian.PutUint64(b[16:], uint64(u.MinorFaults))
	binary.LittleEndian.PutUint64(b[24:], uint64(u.MajorFaults))
	binary.LittleEndian.PutUint64(b[32:], uint64(u.SwapOuts))
	return b
}

// DecodeRusage unpacks a getrusage reply.
func DecodeRusage(b []byte) (vmm.Rusage, error) {
	if len(b) < RusageSize {
		return vmm.Rusage{}, errno.EINVAL
	}
	return vmm.Rusage{
		MaxRSSBytes: int64(binary.LittleEndian.Uint64(b[0:])),
		RSSBytes:    int64(binary.LittleEndian.Uint64(b[8:])),
		MinorFaults: int64(binary.LittleEndian.Uint64(b[16:])),
		MajorFaults: int64(binary.LittleEndian.Uint64(b[24:])),
		SwapOuts:    int64(binary.LittleEndian.Uint64(b[32:])),
	}, nil
}

// RUSAGE_GPU asks getrusage to report the attached GPU's resource usage —
// the adaptation the paper suggests in §IV ("getrusage can be adapted to
// return information about GPU resource usage").
const RUSAGE_GPU = 100

// GPURusageSize is the encoded size of the RUSAGE_GPU reply.
const GPURusageSize = 48

// GPURusage reports accelerator usage counters.
type GPURusage struct {
	KernelsLaunched int64
	WGsDispatched   int64
	Interrupts      int64
	Halts           int64
	Resumes         int64
	Syscalls        int64
}

// EncodeGPURusage packs the GPU usage struct.
func EncodeGPURusage(u GPURusage) []byte {
	b := make([]byte, GPURusageSize)
	for i, v := range []int64{u.KernelsLaunched, u.WGsDispatched, u.Interrupts,
		u.Halts, u.Resumes, u.Syscalls} {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

// DecodeGPURusage unpacks a RUSAGE_GPU reply.
func DecodeGPURusage(b []byte) (GPURusage, error) {
	if len(b) < GPURusageSize {
		return GPURusage{}, errno.EINVAL
	}
	get := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[8*i:])) }
	return GPURusage{
		KernelsLaunched: get(0), WGsDispatched: get(1), Interrupts: get(2),
		Halts: get(3), Resumes: get(4), Syscalls: get(5),
	}, nil
}

func sysGetrusage(c *Ctx, r *Request) {
	if int(r.Args[0]) == RUSAGE_GPU {
		if c.OS.GPU == nil {
			fail(r, errno.ENODEV)
			return
		}
		if len(r.Buf) < GPURusageSize {
			fail(r, errno.EINVAL)
			return
		}
		d := c.OS.GPU
		copy(r.Buf, EncodeGPURusage(GPURusage{
			KernelsLaunched: d.KernelsLaunched,
			WGsDispatched:   d.WGsDispatched,
			Interrupts:      d.Interrupts,
			Halts:           d.Halts,
			Resumes:         d.Resumes,
			Syscalls:        c.OS.Syscalls,
		}))
		return
	}
	if len(r.Buf) < RusageSize {
		fail(r, errno.EINVAL)
		return
	}
	copy(r.Buf, EncodeRusage(c.Proc.MM.Usage()))
}

// --- signals ---

// sysRtSigqueueinfo: Args = [pid, signo, si_value].
func sysRtSigqueueinfo(c *Ctx, r *Request) {
	target, ok := c.OS.Lookup(int(r.Args[0]))
	if !ok {
		fail(r, errno.ENOENT)
		return
	}
	target.Sig.Queue(sig.Siginfo{
		Signo: int(r.Args[1]),
		Pid:   c.Proc.PID,
		Value: int64(r.Args[2]),
	})
}

// --- networking ---

// sysSocket: Args = [type] (0 = SOCK_DGRAM, 1 = SOCK_STREAM).
func sysSocket(c *Ctx, r *Request) {
	var sock *netstack.Socket
	var path string
	switch netstack.SockType(r.Args[0]) {
	case netstack.Dgram:
		sock, path = c.OS.Net.NewSocket(), "socket:[udp]"
	case netstack.Stream:
		sock, path = c.OS.Net.NewStreamSocket(), "socket:[tcp]"
	default:
		fail(r, errno.EINVAL)
		return
	}
	f := &fs.File{Special: sock, Path: path}
	fd, err := c.Proc.FDs.Install(f)
	if err != nil {
		sock.Close()
		fail(r, err)
		return
	}
	r.Ret = int64(fd)
}

func socketOf(c *Ctx, fd int) (*netstack.Socket, error) {
	f, err := c.Proc.FDs.Get(fd)
	if err != nil {
		return nil, err
	}
	sock, ok := f.Special.(*netstack.Socket)
	if !ok {
		return nil, errno.ENOTSOCK
	}
	return sock, nil
}

// sysBind: Args = [fd, port].
func sysBind(c *Ctx, r *Request) {
	sock, err := socketOf(c, int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	if err := sock.Bind(int(r.Args[1])); err != nil {
		fail(r, err)
	}
}

// sysSendto: Args = [fd, count, flags, _, dstPort]; payload in Buf.
func sysSendto(c *Ctx, r *Request) {
	sock, err := socketOf(c, int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	buf, err := countBuf(r, r.Args[1])
	if err != nil {
		fail(r, err)
		return
	}
	t0 := c.OS.E.Now()
	if sock.Type() == netstack.Stream {
		// send(2): dstPort ignored, blocks for window space, writes all.
		n, serr := sock.Send(c.P, buf)
		if serr != nil && n == 0 {
			fail(r, serr)
			return
		}
		netSpan(c, "send", r, sock.Port(), t0)
		r.Ret = int64(n)
		return
	}
	if err := sock.SendTo(int(r.Args[4]), buf); err != nil {
		fail(r, err)
		return
	}
	netSpan(c, "sendto", r, sock.Port(), t0)
	r.Ret = int64(len(buf))
}

// netSpan records a socket operation on the netstack process's timeline,
// linked into the call's causal flow chain when it carries a trace ID.
// A call dispatched without an event log (a CPU-side Ctx) records none.
func netSpan(c *Ctx, op string, r *Request, port int, t0 sim.Time) {
	if c.Events == nil {
		return
	}
	fp, fn := obs.FlowNone, ""
	if r.Trace != 0 {
		fp, fn = obs.FlowStep, Name(r.NR)
	}
	c.Events.FlowSpan("netstack", op, obs.PIDNetstack, port,
		t0, c.OS.E.Now(), r.Trace, fp, fn)
}

// sysRecvfrom: Args = [fd, count, timeout_ns]; the payload lands in Buf
// and the source port in OutArgs[0]. Blocks until a datagram arrives, or
// — when Args[2] carries a receive timeout (SO_RCVTIMEO-style) — fails
// with EAGAIN at the deadline.
func sysRecvfrom(c *Ctx, r *Request) {
	sock, err := socketOf(c, int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	t0 := c.OS.E.Now()
	if sock.Type() == netstack.Stream {
		count := r.Args[1]
		if count == 0 {
			count = uint64(len(r.Buf))
		}
		buf, err := countBuf(r, count)
		if err != nil {
			fail(r, err)
			return
		}
		n, rerr := sock.RecvTimeout(c.P, buf, sim.Time(r.Args[2]))
		if rerr != nil {
			fail(r, rerr)
			return
		}
		netSpan(c, "recv", r, sock.Port(), t0)
		r.Ret = int64(n)
		r.OutArgs[0] = uint64(sock.RemotePort())
		return
	}
	dg, err := sock.RecvFromTimeout(c.P, sim.Time(r.Args[2]))
	if err != nil {
		fail(r, err)
		return
	}
	netSpan(c, "recvfrom", r, sock.Port(), t0)
	n := copy(r.Buf, dg.Data)
	c.OS.Net.PutBuf(dg.Data) // fully copied out; recycle the payload
	r.Ret = int64(n)
	r.OutArgs[0] = uint64(dg.SrcPort)
}
