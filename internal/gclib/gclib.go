// Package gclib is the GPU-side POSIX wrapper library: typed, C-library-
// style functions over the raw GENESYS slot interface, playing the role
// of the device library the paper adds to the HCC compiler ("we modified
// the HCC compiler to permit GPU system call invocations", §VI).
//
// Wrappers come in two flavors:
//
//   - work-group collective (the default): every wavefront of the
//     work-group calls the wrapper; wavefront 0 invokes the system call
//     and the result is published to the whole group through work-group
//     shared memory under the ordering's barriers. All blocking
//     collective wrappers use relaxed producer ordering (result needed →
//     post-call barrier), matching the paper's best-performing
//     configurations.
//   - wavefront-local (the *WF suffix): the calling wavefront invokes
//     alone with no group synchronization — the building block for
//     work-item-style patterns such as grep's immediate match report.
package gclib

import (
	"fmt"

	"genesys/internal/core"
	"genesys/internal/errno"
	"genesys/internal/gpu"
	"genesys/internal/netstack"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
	"genesys/internal/vmm"
)

// C binds the wrapper library to a machine's GENESYS instance. The zero
// Wait mode is polling; set Wait to core.WaitHaltResume to halt instead.
type C struct {
	G    *core.Genesys
	Wait core.WaitMode
}

const (
	// maxRestarts bounds the library's SA_RESTART-style retry loop: a
	// blocking call that returns a transient errno (EINTR/EAGAIN/ENOMEM)
	// is reissued after a capped exponential backoff, provided the call
	// is restartable (syscalls.Restartable) and fault injection is active
	// on the machine — organic transient errnos (e.g. miniAMR's
	// deliberate mmap-until-ENOMEM) are never retried, keeping baselines
	// untouched.
	maxRestarts         = 8
	restartBackoffBase  = 4 * sim.Microsecond
	restartBackoffLimit = 256 * sim.Microsecond
)

// invoke issues one blocking call through the restartable-syscall layer:
// transient failures of restartable calls are reissued with exponential
// backoff in virtual time, up to maxRestarts, while fault injection is
// active. The last result — success or the surfaced errno — is returned.
func (c C) invoke(w *gpu.Wavefront, req syscalls.Request) core.Result {
	res := c.G.Invoke(w, req, core.Options{Blocking: true, Wait: c.Wait})
	if !c.G.FaultsActive() || !syscalls.Restartable(req.NR) || !syscalls.Transient(res.Err) {
		return res
	}
	if req.NR == syscalls.SYS_recvfrom && req.Args[2] > 0 {
		// A receive timeout suppresses restarting, as SO_RCVTIMEO does
		// under SA_RESTART: the caller's own resend logic must see EAGAIN.
		return res
	}
	backoff := restartBackoffBase
	for attempt := 0; attempt < maxRestarts; attempt++ {
		c.G.Retries++
		w.P.Sleep(backoff)
		if backoff < restartBackoffLimit {
			backoff *= 2
		}
		res = c.G.Invoke(w, req, core.Options{Blocking: true, Wait: c.Wait})
		if !syscalls.Transient(res.Err) {
			c.G.Injector().NoteRecovered()
			return res
		}
	}
	c.G.Injector().NoteSurfaced()
	return res
}

// collect runs one blocking call at work-group granularity with relaxed
// producer ordering (leader invokes, post-call barrier — Figure 4 with
// Bar1 elided) and publishes the leader's result to every wavefront.
// Publication happens strictly before the barrier, so the result is
// visible to the whole group regardless of wavefront arrival order.
func (c C) collect(w *gpu.Wavefront, req syscalls.Request) core.Result {
	res, _ := c.collectBuf(w, req)
	return res
}

// wgCollect is the per-work-group publication state of the collective
// wrappers: a small ring of (result, leader-buffer) slots indexed by
// each wavefront's running call count. Wavefronts proceed in barrier
// lockstep, so a reader can lag the leader by at most one call and a
// four-slot ring can never be overwritten before it is read. One typed
// struct in shared memory replaces the old per-call fmt.Sprintf keys and
// the unbounded result entries they accumulated in the Shared map —
// measurable garbage at fleet syscall rates.
type wgCollect struct {
	seq map[int]int // per-wavefront running call index
	res [4]core.Result
	buf [4][]byte
}

// collectKey is the wgCollect entry's name in work-group shared memory.
const collectKey = "__gclib_collect"

// collectBuf is collect exposing the leader's request buffer, which in
// the modeled machine is shared virtual memory: wrappers whose reply
// arrives in the buffer copy it into each wavefront's local slice so Go
// callers see the same bytes a real work-group would.
func (c C) collectBuf(w *gpu.Wavefront, req syscalls.Request) (core.Result, []byte) {
	sh := w.WG.Shared
	cs, _ := sh[collectKey].(*wgCollect)
	if cs == nil {
		cs = &wgCollect{seq: make(map[int]int)}
		sh[collectKey] = cs
	}
	seq := cs.seq[w.ID]
	cs.seq[w.ID] = seq + 1
	slot := seq & 3

	if w.IsLeader() {
		cs.res[slot] = c.invoke(w, req)
		cs.buf[slot] = req.Buf
	}
	w.Barrier() // producer ordering's post-call barrier
	out := cs.res[slot]
	shared := cs.buf[slot]
	if req.Buf != nil && shared != nil && &req.Buf[0] != &shared[0] {
		copy(req.Buf, shared)
	}
	return out, shared
}

// fire issues a non-blocking consumer call from the group leader after a
// pre-call barrier.
func (c C) fire(w *gpu.Wavefront, req syscalls.Request) {
	c.G.InvokeWG(w, req, core.Options{
		Blocking: false, Ordering: core.Relaxed, Kind: core.Consumer,
	})
}

// --- filesystem -----------------------------------------------------------

// Open opens path for the work-group and returns the descriptor.
func (c C) Open(w *gpu.Wavefront, path string, flags int) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_open, Args: [6]uint64{uint64(flags)}, Buf: []byte(path),
	})
	return int(r.Ret), r.Err
}

// Close closes fd (blocking, so errors are observable).
func (c C) Close(w *gpu.Wavefront, fd int) errno.Errno {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_close, Args: [6]uint64{uint64(fd)},
	})
	return r.Err
}

// Read reads up to len(buf) bytes at the shared file offset.
func (c C) Read(w *gpu.Wavefront, fd int, buf []byte) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_read, Args: [6]uint64{uint64(fd), uint64(len(buf))}, Buf: buf,
	})
	return int(r.Ret), r.Err
}

// Pread reads at an absolute offset — safe at any invocation granularity
// because it carries no shared file-pointer state (§IV).
func (c C) Pread(w *gpu.Wavefront, fd int, buf []byte, off int64) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR:   syscalls.SYS_pread64,
		Args: [6]uint64{uint64(fd), uint64(len(buf)), uint64(off)},
		Buf:  buf,
	})
	return int(r.Ret), r.Err
}

// Write writes buf at the shared offset (blocking).
func (c C) Write(w *gpu.Wavefront, fd int, buf []byte) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_write, Args: [6]uint64{uint64(fd), uint64(len(buf))}, Buf: buf,
	})
	return int(r.Ret), r.Err
}

// Pwrite writes at an absolute offset (blocking).
func (c C) Pwrite(w *gpu.Wavefront, fd int, buf []byte, off int64) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR:   syscalls.SYS_pwrite64,
		Args: [6]uint64{uint64(fd), uint64(len(buf)), uint64(off)},
		Buf:  buf,
	})
	return int(r.Ret), r.Err
}

// PwriteAsync is the fire-and-forget pwrite (non-blocking, weak
// ordering): the work-group can retire while the CPU completes the
// write. Pair with Genesys.Drain on the host (§IX).
func (c C) PwriteAsync(w *gpu.Wavefront, fd int, buf []byte, off int64) {
	c.fire(w, syscalls.Request{
		NR:   syscalls.SYS_pwrite64,
		Args: [6]uint64{uint64(fd), uint64(len(buf)), uint64(off)},
		Buf:  buf,
	})
}

// Lseek repositions the shared file offset.
func (c C) Lseek(w *gpu.Wavefront, fd int, off int64, whence int) (int64, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_lseek, Args: [6]uint64{uint64(fd), uint64(off), uint64(whence)},
	})
	return r.Ret, r.Err
}

// Stat returns (size, isDir) for path.
func (c C) Stat(w *gpu.Wavefront, path string) (int64, bool, errno.Errno) {
	buf := make([]byte, syscalls.StatSize+len(path))
	copy(buf[syscalls.StatSize:], path)
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_stat, Buf: buf})
	if r.Err != errno.OK {
		return 0, false, r.Err
	}
	size, isDir, err := syscalls.DecodeStat(buf)
	return size, isDir, errno.Of(err)
}

// Getdents lists the entries of a directory.
func (c C) Getdents(w *gpu.Wavefront, path string) ([]string, errno.Errno) {
	buf := make([]byte, 4096)
	copy(buf, path)
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_getdents64, Buf: buf})
	if r.Err != errno.OK {
		return nil, r.Err
	}
	var names []string
	start := 0
	for i := 0; i < int(r.Ret); i++ {
		if buf[i] == '\n' {
			names = append(names, string(buf[start:i]))
			start = i + 1
		}
	}
	return names, errno.OK
}

// Unlink removes path.
func (c C) Unlink(w *gpu.Wavefront, path string) errno.Errno {
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_unlink, Buf: []byte(path)})
	return r.Err
}

// Mkdir creates a directory.
func (c C) Mkdir(w *gpu.Wavefront, path string) errno.Errno {
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_mkdir, Buf: []byte(path)})
	return r.Err
}

// Rmdir removes an empty directory.
func (c C) Rmdir(w *gpu.Wavefront, path string) errno.Errno {
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_rmdir, Buf: []byte(path)})
	return r.Err
}

// Rename moves oldPath to newPath.
func (c C) Rename(w *gpu.Wavefront, oldPath, newPath string) errno.Errno {
	buf := append(append([]byte(oldPath), 0), []byte(newPath)...)
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_rename, Buf: buf})
	return r.Err
}

// Chdir changes the borrowed process's working directory.
func (c C) Chdir(w *gpu.Wavefront, path string) errno.Errno {
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_chdir, Buf: []byte(path)})
	return r.Err
}

// Getcwd returns the working directory.
func (c C) Getcwd(w *gpu.Wavefront) (string, errno.Errno) {
	buf := make([]byte, 256)
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_getcwd, Buf: buf})
	if r.Err != errno.OK {
		return "", r.Err
	}
	return string(buf[:r.Ret]), errno.OK
}

// Access reports whether path exists.
func (c C) Access(w *gpu.Wavefront, path string) errno.Errno {
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_access, Buf: []byte(path)})
	return r.Err
}

// --- terminal -------------------------------------------------------------

// Print writes s to stdout (fd 1), blocking.
func (c C) Print(w *gpu.Wavefront, s string) errno.Errno {
	_, err := c.Write(w, 1, []byte(s))
	return err
}

// Printf formats and prints to stdout.
func (c C) Printf(w *gpu.Wavefront, format string, args ...any) errno.Errno {
	return c.Print(w, fmt.Sprintf(format, args...))
}

// --- memory management ------------------------------------------------------

// Mmap maps length bytes of anonymous memory.
func (c C) Mmap(w *gpu.Wavefront, length int64) (uint64, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR:   syscalls.SYS_mmap,
		Args: [6]uint64{0, uint64(length), 0, 0, ^uint64(0), 0},
	})
	return uint64(r.Ret), r.Err
}

// Munmap unmaps the region at addr.
func (c C) Munmap(w *gpu.Wavefront, addr uint64, length int64) errno.Errno {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_munmap, Args: [6]uint64{addr, uint64(length)},
	})
	return r.Err
}

// MadviseDontneed releases [addr, addr+length) back to the OS without
// waiting (the miniAMR pattern, §VIII-A).
func (c C) MadviseDontneed(w *gpu.Wavefront, addr uint64, length int64) {
	c.fire(w, syscalls.Request{
		NR:   syscalls.SYS_madvise,
		Args: [6]uint64{addr, uint64(length), vmm.MADV_DONTNEED},
	})
}

// Getrusage returns the borrowed process's resource usage.
func (c C) Getrusage(w *gpu.Wavefront) (vmm.Rusage, errno.Errno) {
	buf := make([]byte, syscalls.RusageSize)
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_getrusage, Buf: buf})
	if r.Err != errno.OK {
		return vmm.Rusage{}, r.Err
	}
	u, err := syscalls.DecodeRusage(buf)
	return u, errno.Of(err)
}

// GetrusageGPU returns the GPU's own resource usage via getrusage with
// RUSAGE_GPU — the accelerator-aware adaptation §IV suggests. The GPU
// querying its own usage from inside a kernel is the sort of
// introspection GENESYS makes possible.
func (c C) GetrusageGPU(w *gpu.Wavefront) (syscalls.GPURusage, errno.Errno) {
	buf := make([]byte, syscalls.GPURusageSize)
	r := c.collect(w, syscalls.Request{
		NR:   syscalls.SYS_getrusage,
		Args: [6]uint64{syscalls.RUSAGE_GPU},
		Buf:  buf,
	})
	if r.Err != errno.OK {
		return syscalls.GPURusage{}, r.Err
	}
	u, err := syscalls.DecodeGPURusage(buf)
	return u, errno.Of(err)
}

// --- signals ----------------------------------------------------------------

// SigQueue sends a queued signal with a payload to pid, without blocking
// (the signal-search pattern, §VIII-B).
func (c C) SigQueue(w *gpu.Wavefront, pid, signo int, value int64) {
	c.fire(w, syscalls.Request{
		NR:   syscalls.SYS_rt_sigqueueinfo,
		Args: [6]uint64{uint64(pid), uint64(signo), uint64(value)},
	})
}

// --- networking --------------------------------------------------------------

// Socket creates a UDP socket.
func (c C) Socket(w *gpu.Wavefront) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_socket})
	return int(r.Ret), r.Err
}

// Bind binds fd to port.
func (c C) Bind(w *gpu.Wavefront, fd, port int) errno.Errno {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_bind, Args: [6]uint64{uint64(fd), uint64(port)},
	})
	return r.Err
}

// SendTo transmits buf to dstPort (blocking).
func (c C) SendTo(w *gpu.Wavefront, fd int, buf []byte, dstPort int) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR:   syscalls.SYS_sendto,
		Args: [6]uint64{uint64(fd), uint64(len(buf)), 0, 0, uint64(dstPort)},
		Buf:  buf,
	})
	return int(r.Ret), r.Err
}

// RecvFrom blocks until a datagram arrives; returns (bytes, source port).
func (c C) RecvFrom(w *gpu.Wavefront, fd int, buf []byte) (int, int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR:   syscalls.SYS_recvfrom,
		Args: [6]uint64{uint64(fd), uint64(len(buf))},
		Buf:  buf,
	})
	return int(r.Ret), int(r.OutArgs[0]), r.Err
}

// RecvFromTimeout is RecvFrom with an SO_RCVTIMEO-style bound: it returns
// EAGAIN if no datagram arrives within timeout. This is the escape hatch
// request/response code needs on a lossy network, where the reply to a
// dropped request would otherwise be awaited forever.
func (c C) RecvFromTimeout(w *gpu.Wavefront, fd int, buf []byte, timeout sim.Time) (int, int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR:   syscalls.SYS_recvfrom,
		Args: [6]uint64{uint64(fd), uint64(len(buf)), uint64(timeout)},
		Buf:  buf,
	})
	return int(r.Ret), int(r.OutArgs[0]), r.Err
}

// StreamSocket creates a TCP-like stream socket.
func (c C) StreamSocket(w *gpu.Wavefront) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_socket, Args: [6]uint64{uint64(netstack.Stream)},
	})
	return int(r.Ret), r.Err
}

// Listen marks a bound stream socket as accepting connections.
func (c C) Listen(w *gpu.Wavefront, fd, backlog int) errno.Errno {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_listen, Args: [6]uint64{uint64(fd), uint64(backlog)},
	})
	return r.Err
}

// Connect establishes a stream connection to dstPort (blocking).
func (c C) Connect(w *gpu.Wavefront, fd, dstPort int) errno.Errno {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_connect, Args: [6]uint64{uint64(fd), uint64(dstPort)},
	})
	return r.Err
}

// Accept blocks for a pending connection and returns (conn fd, remote
// port). timeout > 0 bounds the wait SO_RCVTIMEO-style (EAGAIN).
func (c C) Accept(w *gpu.Wavefront, fd int, timeout sim.Time) (int, int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_accept, Args: [6]uint64{uint64(fd), uint64(timeout)},
	})
	return int(r.Ret), int(r.OutArgs[0]), r.Err
}

// Send writes buf to a connected stream socket (blocking, full write).
func (c C) Send(w *gpu.Wavefront, fd int, buf []byte) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR:   syscalls.SYS_sendto,
		Args: [6]uint64{uint64(fd), uint64(len(buf))},
		Buf:  buf,
	})
	return int(r.Ret), r.Err
}

// Recv reads from a connected stream socket; 0 bytes with no error is
// EOF. timeout > 0 bounds the wait (EAGAIN at the deadline).
func (c C) Recv(w *gpu.Wavefront, fd int, buf []byte, timeout sim.Time) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR:   syscalls.SYS_recvfrom,
		Args: [6]uint64{uint64(fd), uint64(len(buf)), uint64(timeout)},
		Buf:  buf,
	})
	return int(r.Ret), r.Err
}

// Poll waits for readiness across fds, poll(2)-style, so one work-group
// slot multiplexes a whole shard of fleet sockets. It returns the
// indices into fds that are readable. timeout semantics: 0 probes
// without blocking, PollForever blocks until something is ready, any
// other value is a deadline after which an empty set returns.
func (c C) Poll(w *gpu.Wavefront, fds []int, timeout sim.Time) ([]int, errno.Errno) {
	return c.PollWith(w, fds, timeout, nil)
}

// PollScratch is reusable storage for PollWith: a serving loop that
// polls every tick keeps one per wavefront so readiness multiplexing
// allocates nothing in steady state.
type PollScratch struct {
	buf   []byte
	ready []int
}

// PollWith is Poll reusing s's storage for the request encoding and the
// returned ready set (nil s behaves like Poll). The returned slice is
// valid until the next PollWith on the same scratch.
func (c C) PollWith(w *gpu.Wavefront, fds []int, timeout sim.Time, s *PollScratch) ([]int, errno.Errno) {
	var scratch PollScratch
	if s == nil {
		s = &scratch
	}
	s.buf = syscalls.EncodePollFDsInto(s.buf, fds)
	r, _ := c.collectBuf(w, syscalls.Request{
		NR:   syscalls.SYS_poll,
		Args: [6]uint64{uint64(len(fds)), uint64(timeout)},
		Buf:  s.buf,
	})
	if r.Err != errno.OK {
		return nil, r.Err
	}
	ready := s.ready[:0]
	for i, b := range syscalls.DecodePollRevents(s.buf, len(fds)) {
		if b != 0 {
			ready = append(ready, i)
		}
	}
	s.ready = ready
	if len(ready) == 0 {
		return nil, errno.OK
	}
	return ready, errno.OK
}

// PollForever is the Poll timeout meaning "block until readiness".
const PollForever = sim.Time(int64(-1))

// --- device control -----------------------------------------------------------

// Ioctl issues a device control command with an argument buffer.
func (c C) Ioctl(w *gpu.Wavefront, fd int, cmd uint64, arg []byte) (uint64, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_ioctl, Args: [6]uint64{uint64(fd), cmd}, Buf: arg,
	})
	return uint64(r.Ret), r.Err
}

// MmapDevice maps the device behind fd (e.g. the framebuffer).
func (c C) MmapDevice(w *gpu.Wavefront, fd int) (uint64, errno.Errno) {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_mmap, Args: [6]uint64{0, 0, 0, 0, uint64(fd), 0},
	})
	return uint64(r.Ret), r.Err
}

// --- misc ----------------------------------------------------------------------

// GetPID returns the borrowed process's PID.
func (c C) GetPID(w *gpu.Wavefront) (int, errno.Errno) {
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_getpid})
	return int(r.Ret), r.Err
}

// ClockGettime returns the current virtual time in nanoseconds.
func (c C) ClockGettime(w *gpu.Wavefront) (int64, errno.Errno) {
	r := c.collect(w, syscalls.Request{NR: syscalls.SYS_clock_gettime})
	return r.Ret, r.Err
}

// Nanosleep blocks the calling work-group for d nanoseconds of kernel
// time.
func (c C) Nanosleep(w *gpu.Wavefront, d int64) errno.Errno {
	r := c.collect(w, syscalls.Request{
		NR: syscalls.SYS_nanosleep, Args: [6]uint64{uint64(d)},
	})
	return r.Err
}

// --- wavefront-local variants ----------------------------------------------

// WriteWF writes from this wavefront alone, with no group barriers (the
// grep -l "report immediately" pattern). One lane invokes; blocking.
func (c C) WriteWF(w *gpu.Wavefront, fd int, buf []byte) (int, errno.Errno) {
	r := c.invoke(w, syscalls.Request{
		NR: syscalls.SYS_write, Args: [6]uint64{uint64(fd), uint64(len(buf))}, Buf: buf,
	})
	return int(r.Ret), r.Err
}

// PrintWF prints from this wavefront alone.
func (c C) PrintWF(w *gpu.Wavefront, s string) errno.Errno {
	_, err := c.WriteWF(w, 1, []byte(s))
	return err
}
