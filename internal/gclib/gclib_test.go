package gclib_test

import (
	"fmt"
	"strings"
	"testing"

	"genesys/internal/core"
	"genesys/internal/errno"
	"genesys/internal/gclib"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

func newM(t *testing.T) *platform.Machine {
	t.Helper()
	m := platform.New(platform.DefaultConfig())
	t.Cleanup(m.Shutdown)
	m.NewProcess("app")
	return m
}

// runKernel launches fn as a single work-group of the given size and
// waits for it, draining outstanding calls.
func runKernel(t *testing.T, m *platform.Machine, wgs, wgSize int, fn func(w *gpu.Wavefront)) {
	t.Helper()
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{Name: "t", WorkGroups: wgs, WGSize: wgSize, Fn: fn})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	m := newM(t)
	c := gclib.C{G: m.Genesys}
	var readBack string
	runKernel(t, m, 1, 256, func(w *gpu.Wavefront) {
		fd, err := c.Open(w, "/tmp/f", 0x42 /* O_CREAT|O_RDWR */)
		if err != errno.OK {
			t.Errorf("open: %v", err)
			return
		}
		if n, err := c.Write(w, fd, []byte("written from the gpu")); n != 20 || err != errno.OK {
			t.Errorf("write: %d %v", n, err)
		}
		if pos, err := c.Lseek(w, fd, 0, 0); pos != 0 || err != errno.OK {
			t.Errorf("lseek: %d %v", pos, err)
		}
		buf := make([]byte, 32)
		n, err := c.Read(w, fd, buf)
		if err != errno.OK {
			t.Errorf("read: %v", err)
		}
		if w.IsLeader() {
			readBack = string(buf[:n])
		}
		if size, isDir, err := c.Stat(w, "/tmp/f"); size != 20 || isDir || err != errno.OK {
			t.Errorf("stat: %d %v %v", size, isDir, err)
		}
		if err := c.Close(w, fd); err != errno.OK {
			t.Errorf("close: %v", err)
		}
	})
	if readBack != "written from the gpu" {
		t.Fatalf("read back %q", readBack)
	}
}

func TestResultVisibleToAllWavefronts(t *testing.T) {
	// The collective wrappers publish the leader's result to every
	// wavefront of the group (4 wavefronts here).
	m := newM(t)
	c := gclib.C{G: m.Genesys}
	fds := map[int]int{}
	runKernel(t, m, 1, 256, func(w *gpu.Wavefront) {
		fd, err := c.Open(w, "/tmp/shared", 0x42)
		if err != errno.OK {
			t.Errorf("open: %v", err)
		}
		fds[w.ID] = fd
	})
	if len(fds) != 4 {
		t.Fatalf("wavefronts seen: %d", len(fds))
	}
	for id, fd := range fds {
		if fd != fds[0] {
			t.Fatalf("wavefront %d saw fd %d, leader saw %d", id, fd, fds[0])
		}
	}
}

func TestSkewedWavefrontsStillAgree(t *testing.T) {
	// A non-leader wavefront computing past the leader's syscall must
	// still observe the correct result at the wrapper's barrier.
	m := newM(t)
	c := gclib.C{G: m.Genesys}
	results := map[int]int{}
	runKernel(t, m, 1, 256, func(w *gpu.Wavefront) {
		if w.ID == 3 {
			w.ComputeTime(5 * sim.Millisecond) // way past the syscall latency
		}
		pid, err := c.GetPID(w)
		if err != errno.OK {
			t.Errorf("getpid: %v", err)
		}
		results[w.ID] = pid
	})
	for id, pid := range results {
		if pid != 1 {
			t.Fatalf("wavefront %d saw pid %d", id, pid)
		}
	}
}

func TestZeroLengthBuffers(t *testing.T) {
	// Empty buffers are valid arguments: the collective must publish the
	// result without indexing them.
	for _, size := range []int{64, 256} {
		m := newM(t)
		c := gclib.C{G: m.Genesys}
		if err := m.WriteFile("/tmp/f", []byte("data")); err != nil {
			t.Fatal(err)
		}
		runKernel(t, m, 1, size, func(w *gpu.Wavefront) {
			if err := c.Print(w, ""); err != errno.OK {
				t.Errorf("%d WIs: print: %v", size, err)
			}
			if err := c.Printf(w, "%s", ""); err != errno.OK {
				t.Errorf("%d WIs: printf: %v", size, err)
			}
			fd, err := c.Open(w, "/tmp/f", 0)
			if err != errno.OK {
				t.Errorf("%d WIs: open: %v", size, err)
			}
			if n, err := c.Read(w, fd, make([]byte, 0)); n != 0 || err != errno.OK {
				t.Errorf("%d WIs: read: %d %v", size, n, err)
			}
		})
	}
}

func TestOneWavefrontCollectiveAllocs(t *testing.T) {
	// A one-wavefront group has nobody to broadcast to: a collective
	// call allocates what the leader's own invocation does.
	m := newM(t)
	c := gclib.C{G: m.Genesys}
	var collective, local float64
	runKernel(t, m, 1, 64, func(w *gpu.Wavefront) {
		getpid := syscalls.Request{NR: syscalls.SYS_getpid}
		o := core.Options{Blocking: true, Wait: c.Wait}
		for i := 0; i < 16; i++ { // warm the slot chunk and pools
			c.GetPID(w)
		}
		collective = testing.AllocsPerRun(100, func() { c.GetPID(w) })
		local = testing.AllocsPerRun(100, func() { m.Genesys.Invoke(w, getpid, o) })
	})
	if collective != local {
		t.Fatalf("GetPID in a 64-WI group allocates %.2f/call, the leader's invocation %.2f", collective, local)
	}
}

func TestTerminalAndDirOps(t *testing.T) {
	m := newM(t)
	c := gclib.C{G: m.Genesys}
	for _, name := range []string{"x.txt", "y.txt"} {
		if err := m.WriteFile("/tmp/"+name, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	var listed []string
	runKernel(t, m, 1, 64, func(w *gpu.Wavefront) {
		names, err := c.Getdents(w, "/tmp")
		if err != errno.OK {
			t.Errorf("getdents: %v", err)
		}
		if w.IsLeader() {
			listed = names
		}
		c.Printf(w, "saw %d entries\n", len(names))
		if err := c.Unlink(w, "/tmp/y.txt"); err != errno.OK {
			t.Errorf("unlink: %v", err)
		}
		names2, _ := c.Getdents(w, "/tmp")
		if len(names2) != len(names)-1 {
			t.Errorf("after unlink: %v", names2)
		}
	})
	if fmt.Sprint(listed) != "[x.txt y.txt]" {
		t.Fatalf("listed = %v", listed)
	}
	if !strings.Contains(m.OS.Console.Contents(), "saw 2 entries") {
		t.Fatalf("console = %q", m.OS.Console.Contents())
	}
}

func TestMemoryAndUsage(t *testing.T) {
	m := newM(t)
	c := gclib.C{G: m.Genesys}
	pr := m.Genesys.Process()
	runKernel(t, m, 1, 64, func(w *gpu.Wavefront) {
		addr, err := c.Mmap(w, 1<<20)
		if err != errno.OK {
			t.Errorf("mmap: %v", err)
			return
		}
		if w.IsLeader() {
			if terr := pr.MM.Touch(w.P, addr, 1<<20, true); terr != nil {
				t.Errorf("touch: %v", terr)
			}
		}
		w.Barrier()
		u, err := c.Getrusage(w)
		if err != errno.OK || u.RSSBytes != 1<<20 {
			t.Errorf("getrusage: %+v %v", u, err)
		}
		c.MadviseDontneed(w, addr, 1<<20)
	})
	if pr.MM.RSSBytes() != 0 {
		t.Fatalf("rss after madvise = %d", pr.MM.RSSBytes())
	}
}

func TestNetworkingWrappers(t *testing.T) {
	m := newM(t)
	c := gclib.C{G: m.Genesys}
	// A CPU-side echo peer.
	peer := m.Net.NewSocket()
	if err := peer.Bind(4242); err != nil {
		t.Fatal(err)
	}
	m.E.SpawnDaemon("peer", func(p *sim.Proc) {
		for {
			dg, err := peer.RecvFrom(p)
			if err != nil {
				return
			}
			peer.SendTo(dg.SrcPort, append([]byte("echo:"), dg.Data...))
		}
	})
	var reply string
	runKernel(t, m, 1, 64, func(w *gpu.Wavefront) {
		fd, err := c.Socket(w)
		if err != errno.OK {
			t.Errorf("socket: %v", err)
			return
		}
		if err := c.Bind(w, fd, 0); err != errno.OK {
			t.Errorf("bind: %v", err)
		}
		if _, err := c.SendTo(w, fd, []byte("ping"), 4242); err != errno.OK {
			t.Errorf("sendto: %v", err)
		}
		buf := make([]byte, 32)
		n, src, err := c.RecvFrom(w, fd, buf)
		if err != errno.OK || src != 4242 {
			t.Errorf("recvfrom: %v src=%d", err, src)
		}
		if w.IsLeader() {
			reply = string(buf[:n])
		}
		c.Close(w, fd)
	})
	if reply != "echo:ping" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestClockAndSleep(t *testing.T) {
	m := newM(t)
	c := gclib.C{G: m.Genesys}
	var t0, t1 int64
	runKernel(t, m, 1, 64, func(w *gpu.Wavefront) {
		var err errno.Errno
		t0, err = c.ClockGettime(w)
		if err != errno.OK {
			t.Errorf("clock: %v", err)
		}
		if err := c.Nanosleep(w, int64(2*sim.Millisecond)); err != errno.OK {
			t.Errorf("nanosleep: %v", err)
		}
		t1, _ = c.ClockGettime(w)
	})
	if t1-t0 < int64(2*sim.Millisecond) {
		t.Fatalf("slept %d ns", t1-t0)
	}
}

func TestWavefrontLocalPrint(t *testing.T) {
	m := newM(t)
	c := gclib.C{G: m.Genesys, Wait: core.WaitHaltResume}
	runKernel(t, m, 1, 256, func(w *gpu.Wavefront) {
		// Only wavefront 2 reports, with no group synchronization.
		if w.ID == 2 {
			if err := c.PrintWF(w, "wavefront 2 reporting\n"); err != errno.OK {
				t.Errorf("printWF: %v", err)
			}
		}
	})
	if m.OS.Console.Contents() != "wavefront 2 reporting\n" {
		t.Fatalf("console = %q", m.OS.Console.Contents())
	}
}

func TestIoctlWrapper(t *testing.T) {
	m := newM(t)
	c := gclib.C{G: m.Genesys}
	var x, y uint32
	runKernel(t, m, 1, 64, func(w *gpu.Wavefront) {
		fd, err := c.Open(w, "/dev/fb0", 0x2)
		if err != errno.OK {
			t.Errorf("open fb0: %v", err)
			return
		}
		arg := make([]byte, 12)
		if _, err := c.Ioctl(w, fd, 0x4600, arg); err != errno.OK {
			t.Errorf("ioctl: %v", err)
		}
		if w.IsLeader() {
			x = uint32(arg[0]) | uint32(arg[1])<<8
			y = uint32(arg[4]) | uint32(arg[5])<<8
		}
		addr, err := c.MmapDevice(w, fd)
		if err != errno.OK || addr == 0 {
			t.Errorf("mmap device: %v %d", err, addr)
		}
		c.Close(w, fd)
	})
	if x != 1024 || y != 768 {
		t.Fatalf("mode = %dx%d", x, y)
	}
}

func TestDirectoryWrappers(t *testing.T) {
	m := newM(t)
	c := gclib.C{G: m.Genesys}
	runKernel(t, m, 1, 64, func(w *gpu.Wavefront) {
		if err := c.Mkdir(w, "/tmp/made"); err != errno.OK {
			t.Errorf("mkdir: %v", err)
		}
		if err := c.Access(w, "/tmp/made"); err != errno.OK {
			t.Errorf("access: %v", err)
		}
		if err := c.Chdir(w, "/tmp/made"); err != errno.OK {
			t.Errorf("chdir: %v", err)
		}
		cwd, err := c.Getcwd(w)
		if err != errno.OK || cwd != "/tmp/made" {
			t.Errorf("getcwd = %q, %v", cwd, err)
		}
		// Relative create via the GPU's working directory.
		fd, oerr := c.Open(w, "inside.txt", 0x42)
		if oerr != errno.OK {
			t.Errorf("relative open: %v", oerr)
		}
		c.Close(w, fd)
		if err := c.Rename(w, "/tmp/made/inside.txt", "/tmp/made/renamed.txt"); err != errno.OK {
			t.Errorf("rename: %v", err)
		}
		if err := c.Unlink(w, "/tmp/made/renamed.txt"); err != errno.OK {
			t.Errorf("unlink: %v", err)
		}
		if err := c.Chdir(w, "/"); err != errno.OK {
			t.Errorf("chdir /: %v", err)
		}
		if err := c.Rmdir(w, "/tmp/made"); err != errno.OK {
			t.Errorf("rmdir: %v", err)
		}
	})
	if _, err := m.VFS.Resolve("/tmp/made"); err == nil {
		t.Fatal("directory survived rmdir")
	}
}
