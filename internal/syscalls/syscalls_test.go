package syscalls

import (
	"bytes"
	"testing"

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

type env struct {
	e  *sim.Engine
	os *oskern.OS
	pr *oskern.Process
	fb *fs.Framebuffer
}

func newEnv(t *testing.T) *env {
	t.Helper()
	e := sim.NewEngine(1)
	o := obs.New(0)
	in := fault.NewInjector(e, 1, fault.Plan{}, func() {})
	c := cpu.New(e, cpu.DefaultConfig(), o.Util.Track("cpu.busy", 0), o.Util.Track("cpu.waiting", 0))
	v := fs.NewVFS()
	net := netstack.New(e, netstack.DefaultConfig(), o.Events, in)
	vmCfg := vmm.DefaultConfig()
	pool := &vmm.Pool{Total: vmCfg.PhysPages}
	os := oskern.New(e, c, v, net, pool, vmCfg, oskern.DefaultConfig(),
		o.Events, o.Util.Track("oskern.busy", 0), in)
	fs.NewTmpfs().Mount(v, "/tmp")
	fb := fs.NewFramebuffer(fs.VScreenInfo{XRes: 64, YRes: 64, BPP: 32})
	os.AddDevice("fb0", fb)
	t.Cleanup(e.Shutdown)
	return &env{e: e, os: os, pr: os.NewProcess("app"), fb: fb}
}

// call dispatches one syscall from a fresh proc and returns the request.
func (ev *env) call(t *testing.T, r *Request) *Request {
	t.Helper()
	ev.e.Spawn("caller", func(p *sim.Proc) {
		Dispatch(&Ctx{P: p, OS: ev.os, Proc: ev.pr}, r)
	})
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

// callSeq dispatches several syscalls in order within one proc.
func (ev *env) callSeq(t *testing.T, rs ...*Request) {
	t.Helper()
	ev.e.Spawn("caller", func(p *sim.Proc) {
		c := &Ctx{P: p, OS: ev.os, Proc: ev.pr}
		for _, r := range rs {
			Dispatch(c, r)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenWriteLseekReadClose(t *testing.T) {
	ev := newEnv(t)
	open := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_RDWR}, Buf: []byte("/tmp/f")}
	ev.call(t, open)
	if open.Err != errno.OK || open.Ret < 3 {
		t.Fatalf("open = %+v", open)
	}
	fd := uint64(open.Ret)
	write := &Request{NR: SYS_write, Args: [6]uint64{fd, 5}, Buf: []byte("hello")}
	seek := &Request{NR: SYS_lseek, Args: [6]uint64{fd, 0, fs.SeekSet}}
	buf := make([]byte, 16)
	read := &Request{NR: SYS_read, Args: [6]uint64{fd, 16}, Buf: buf}
	cl := &Request{NR: SYS_close, Args: [6]uint64{fd}}
	read2 := &Request{NR: SYS_read, Args: [6]uint64{fd, 16}, Buf: buf}
	ev.callSeq(t, write, seek, read, cl, read2)
	if write.Ret != 5 || seek.Ret != 0 || read.Ret != 5 {
		t.Fatalf("write=%d seek=%d read=%d", write.Ret, seek.Ret, read.Ret)
	}
	if string(buf[:5]) != "hello" {
		t.Fatalf("buf = %q", buf[:5])
	}
	if cl.Err != errno.OK || read2.Err != errno.EBADF {
		t.Fatalf("close=%v read-after-close=%v", cl.Err, read2.Err)
	}
}

func TestPreadPwrite(t *testing.T) {
	ev := newEnv(t)
	open := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_RDWR}, Buf: []byte("/tmp/p")}
	ev.call(t, open)
	fd := uint64(open.Ret)
	pw := &Request{NR: SYS_pwrite64, Args: [6]uint64{fd, 4, 100}, Buf: []byte("data")}
	buf := make([]byte, 4)
	pr := &Request{NR: SYS_pread64, Args: [6]uint64{fd, 4, 100}, Buf: buf}
	ev.callSeq(t, pw, pr)
	if pw.Ret != 4 || pr.Ret != 4 || string(buf) != "data" {
		t.Fatalf("pw=%+v pr=%+v buf=%q", pw, pr, buf)
	}
}

func TestMmapMadviseGetrusage(t *testing.T) {
	ev := newEnv(t)
	mm := &Request{NR: SYS_mmap, Args: [6]uint64{0, 1 << 20, 0, 0, ^uint64(0), 0}}
	ev.call(t, mm)
	if mm.Err != errno.OK || mm.Ret == 0 {
		t.Fatalf("mmap = %+v", mm)
	}
	addr := uint64(mm.Ret)
	ev.e.Spawn("touch", func(p *sim.Proc) {
		ev.pr.MM.Touch(p, addr, 1<<20, false)
	})
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
	mad := &Request{NR: SYS_madvise, Args: [6]uint64{addr, 1 << 20, vmm.MADV_DONTNEED}}
	ru := &Request{NR: SYS_getrusage, Args: [6]uint64{0}, Buf: make([]byte, RusageSize)}
	mun := &Request{NR: SYS_munmap, Args: [6]uint64{addr, 1 << 20}}
	ev.callSeq(t, mad, ru, mun)
	if mad.Err != errno.OK || mun.Err != errno.OK {
		t.Fatalf("madvise=%v munmap=%v", mad.Err, mun.Err)
	}
	usage, err := DecodeRusage(ru.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if usage.MaxRSSBytes != 1<<20 || usage.RSSBytes != 0 {
		t.Fatalf("usage = %+v", usage)
	}
}

func TestSignalDelivery(t *testing.T) {
	ev := newEnv(t)
	target := ev.os.NewProcess("receiver")
	sq := &Request{NR: SYS_rt_sigqueueinfo, Args: [6]uint64{uint64(target.PID), sig.SIGRTMIN, 777}}
	ev.call(t, sq)
	if sq.Err != errno.OK {
		t.Fatalf("rt_sigqueueinfo = %v", sq.Err)
	}
	si, ok := target.Sig.TryWait()
	if !ok || si.Value != 777 || si.Pid != ev.pr.PID || si.Signo != sig.SIGRTMIN {
		t.Fatalf("siginfo = %+v ok=%v", si, ok)
	}
	bad := &Request{NR: SYS_rt_sigqueueinfo, Args: [6]uint64{999, sig.SIGRTMIN, 0}}
	ev.call(t, bad)
	if bad.Err != errno.ENOENT {
		t.Fatalf("signal to unknown pid = %v", bad.Err)
	}
}

func TestSocketBindSendRecv(t *testing.T) {
	ev := newEnv(t)
	s1 := &Request{NR: SYS_socket}
	s2 := &Request{NR: SYS_socket}
	ev.callSeq(t, s1, s2)
	fd1, fd2 := uint64(s1.Ret), uint64(s2.Ret)
	bind := &Request{NR: SYS_bind, Args: [6]uint64{fd1, 7000}}
	send := &Request{NR: SYS_sendto, Args: [6]uint64{fd2, 3, 0, 0, 7000}, Buf: []byte("msg")}
	recvBuf := make([]byte, 16)
	recv := &Request{NR: SYS_recvfrom, Args: [6]uint64{fd1, 16}, Buf: recvBuf}
	ev.callSeq(t, bind, send, recv)
	if bind.Err != errno.OK || send.Ret != 3 {
		t.Fatalf("bind=%v send=%+v", bind.Err, send)
	}
	if recv.Ret != 3 || !bytes.Equal(recvBuf[:3], []byte("msg")) {
		t.Fatalf("recv = %+v %q", recv, recvBuf[:3])
	}
	if recv.OutArgs[0] == 0 {
		t.Fatal("recvfrom did not report source port")
	}
	// sendto on a non-socket fd
	nb := &Request{NR: SYS_sendto, Args: [6]uint64{1, 1, 0, 0, 7000}, Buf: []byte("x")}
	ev.call(t, nb)
	if nb.Err != errno.ENOTSOCK {
		t.Fatalf("sendto on stdout = %v", nb.Err)
	}
}

func TestIoctlAndDeviceMmap(t *testing.T) {
	ev := newEnv(t)
	open := &Request{NR: SYS_open, Args: [6]uint64{fs.O_RDWR}, Buf: []byte("/dev/fb0")}
	ev.call(t, open)
	if open.Err != errno.OK {
		t.Fatalf("open fb0 = %v", open.Err)
	}
	fd := uint64(open.Ret)
	arg := make([]byte, 12)
	get := &Request{NR: SYS_ioctl, Args: [6]uint64{fd, fs.FBIOGET_VSCREENINFO}, Buf: arg}
	ev.call(t, get)
	info, _ := fs.DecodeVScreenInfo(arg)
	if info.XRes != 64 || info.BPP != 32 {
		t.Fatalf("vinfo = %+v", info)
	}
	mm := &Request{NR: SYS_mmap, Args: [6]uint64{0, 0, 0, 0, fd, 0}}
	ev.call(t, mm)
	if mm.Err != errno.OK {
		t.Fatalf("fb mmap = %v", mm.Err)
	}
	vma, err := ev.pr.MM.FindVMA(uint64(mm.Ret))
	if err != nil || vma.Device == nil {
		t.Fatalf("fb vma = %v, %v", vma, err)
	}
	vma.Device[0] = 42
	if ev.fb.Pixels()[0] != 42 {
		t.Fatal("fb mmap not aliased to pixels")
	}
}

func TestGetrusageGPU(t *testing.T) {
	ev := newEnv(t)
	// Without an attached GPU the call reports ENODEV.
	r := &Request{NR: SYS_getrusage, Args: [6]uint64{RUSAGE_GPU},
		Buf: make([]byte, GPURusageSize)}
	ev.call(t, r)
	if r.Err != errno.ENODEV {
		t.Fatalf("RUSAGE_GPU without GPU = %v", r.Err)
	}
	// Round trip of the encoding.
	u := GPURusage{KernelsLaunched: 1, WGsDispatched: 2, Interrupts: 3,
		Halts: 4, Resumes: 5, Syscalls: 6}
	got, err := DecodeGPURusage(EncodeGPURusage(u))
	if err != nil || got != u {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeGPURusage([]byte{1}); err != errno.EINVAL {
		t.Fatalf("short decode = %v", err)
	}
}

func TestENOSYS(t *testing.T) {
	ev := newEnv(t)
	r := &Request{NR: 57} // fork
	ev.call(t, r)
	if r.Err != errno.ENOSYS || r.Ret != -1 {
		t.Fatalf("fork = %+v", r)
	}
}

func TestImplementedSet(t *testing.T) {
	// The paper implements 14 syscalls + our socket/bind additions + ioctl.
	if !Implemented(SYS_read) || !Implemented(SYS_rt_sigqueueinfo) || Implemented(57) {
		t.Fatal("Implemented() inconsistent")
	}
	if ImplementedCount() < 14 {
		t.Fatalf("implemented = %d, want ≥ 14 (paper's set)", ImplementedCount())
	}
	// Every implemented syscall must be classified readily-implementable.
	for nr := range map[int]bool{SYS_read: true, SYS_write: true, SYS_open: true,
		SYS_close: true, SYS_lseek: true, SYS_mmap: true, SYS_munmap: true,
		SYS_ioctl: true, SYS_pread64: true, SYS_pwrite64: true, SYS_madvise: true,
		SYS_socket: true, SYS_sendto: true, SYS_recvfrom: true, SYS_bind: true,
		SYS_getrusage: true, SYS_rt_sigqueueinfo: true} {
		info := Classification()[nr]
		if info.Class != ClassReady {
			t.Fatalf("implemented syscall %s classified %v", info.Name, info.Class)
		}
	}
}

func TestClassificationPercentages(t *testing.T) {
	ready, hw, ext, total := ClassCounts()
	if total < 300 {
		t.Fatalf("total = %d, want 300+ (paper: 'over 300')", total)
	}
	pr := 100 * float64(ready) / float64(total)
	ph := 100 * float64(hw) / float64(total)
	px := 100 * float64(ext) / float64(total)
	// §IV: ~79% readily-implementable, 13% hardware changes, 8% extensive.
	if pr < 77.5 || pr > 80.5 {
		t.Fatalf("readily = %.1f%%, want ≈79%%", pr)
	}
	if ph < 11.5 || ph > 14.5 {
		t.Fatalf("hardware = %.1f%%, want ≈13%%", ph)
	}
	if px < 6.5 || px > 9.5 {
		t.Fatalf("extensive = %.1f%%, want ≈8%%", px)
	}
}

func TestClassificationLookups(t *testing.T) {
	cases := map[string]Class{
		"pread64":           ClassReady,
		"capget":            ClassHardware,
		"setns":             ClassHardware,
		"set_mempolicy":     ClassHardware,
		"sched_setaffinity": ClassHardware,
		"rt_sigaction":      ClassHardware,
		"ioperm":            ClassHardware,
		"fork":              ClassExtensive,
		"execve":            ClassExtensive,
	}
	for name, want := range cases {
		info, ok := ClassifyName(name)
		if !ok || info.Class != want {
			t.Fatalf("%s = %v (ok=%v), want %v", name, info.Class, ok, want)
		}
		if want != ClassReady && info.Reason == "" {
			t.Fatalf("%s lacks a reason", name)
		}
	}
	if _, ok := ClassifyName("not_a_syscall"); ok {
		t.Fatal("bogus name classified")
	}
	if len(ByClass(ClassHardware)) == 0 {
		t.Fatal("ByClass empty")
	}
	for _, c := range []Class{ClassReady, ClassHardware, ClassExtensive} {
		if c.String() == "unknown" {
			t.Fatal("class string")
		}
	}
}

func TestNumbersMatchLinux(t *testing.T) {
	// Spot-check that the classification table's indexes are real Linux
	// x86-64 numbers and agree with our constants.
	cl := Classification()
	checks := map[int]string{
		SYS_read: "read", SYS_write: "write", SYS_open: "open",
		SYS_close: "close", SYS_lseek: "lseek", SYS_mmap: "mmap",
		SYS_munmap: "munmap", SYS_ioctl: "ioctl", SYS_pread64: "pread64",
		SYS_pwrite64: "pwrite64", SYS_madvise: "madvise",
		SYS_socket: "socket", SYS_sendto: "sendto",
		SYS_recvfrom: "recvfrom", SYS_bind: "bind",
		SYS_getrusage: "getrusage", SYS_rt_sigqueueinfo: "rt_sigqueueinfo",
		57: "fork", 59: "execve", 202: "futex", 332: "statx",
	}
	for nr, name := range checks {
		if cl[nr].Name != name {
			t.Fatalf("syscall %d = %q, want %q", nr, cl[nr].Name, name)
		}
	}
}

func TestRusageRoundTrip(t *testing.T) {
	u := vmm.Rusage{MaxRSSBytes: 1, RSSBytes: 2, MinorFaults: 3, MajorFaults: 4, SwapOuts: 5}
	got, err := DecodeRusage(EncodeRusage(u))
	if err != nil || got != u {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeRusage([]byte{1, 2}); err != errno.EINVAL {
		t.Fatalf("short decode = %v", err)
	}
}
