package syscalls

import (
	"encoding/binary"

	"genesys/internal/errno"
	"genesys/internal/fs"
	"genesys/internal/sim"
)

// Second wave of readily-implementable system calls (§IV): beyond the
// paper's proof-of-concept set, these flesh out the filesystem and
// process-query surface a real GPU program would lean on.
const (
	SYS_stat          = 4
	SYS_fstat         = 5
	SYS_readv         = 19
	SYS_writev        = 20
	SYS_dup           = 32
	SYS_nanosleep     = 35
	SYS_getpid        = 39
	SYS_uname         = 63
	SYS_fsync         = 74
	SYS_ftruncate     = 77
	SYS_unlink        = 87
	SYS_getdents64    = 217
	SYS_clock_gettime = 228
	SYS_pipe2         = 293
)

func init() {
	table[SYS_stat] = sysStat
	table[SYS_fstat] = sysFstat
	table[SYS_readv] = sysReadv
	table[SYS_writev] = sysWritev
	table[SYS_dup] = sysDup
	table[SYS_nanosleep] = sysNanosleep
	table[SYS_getpid] = sysGetpid
	table[SYS_uname] = sysUname
	table[SYS_fsync] = sysFsync
	table[SYS_ftruncate] = sysFtruncate
	table[SYS_unlink] = sysUnlink
	table[SYS_getdents64] = sysGetdents
	table[SYS_clock_gettime] = sysClockGettime
	table[SYS_pipe2] = sysPipe2
}

// StatSize is the encoded size of the stat reply: size(8) + mode(8).
const StatSize = 16

// Stat mode bits in the encoded reply.
const (
	StatModeFile = 1
	StatModeDir  = 2
)

func encodeStat(buf []byte, size int64, mode uint64) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(size))
	binary.LittleEndian.PutUint64(buf[8:], mode)
}

// DecodeStat unpacks a stat reply into (size, isDir).
func DecodeStat(buf []byte) (int64, bool, error) {
	if len(buf) < StatSize {
		return 0, false, errno.EINVAL
	}
	return int64(binary.LittleEndian.Uint64(buf[0:])),
		binary.LittleEndian.Uint64(buf[8:]) == StatModeDir, nil
}

// sysStat: pathname in Buf[StatSize:], reply in Buf[:StatSize].
func sysStat(c *Ctx, r *Request) {
	if len(r.Buf) < StatSize {
		fail(r, errno.EINVAL)
		return
	}
	n, err := c.OS.VFS.Resolve(c.abs(cstr(r.Buf[StatSize:])))
	if err != nil {
		fail(r, err)
		return
	}
	mode := uint64(StatModeFile)
	if _, isDir := n.(*fs.Dir); isDir {
		mode = StatModeDir
	}
	encodeStat(r.Buf, n.Size(), mode)
}

func sysFstat(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	if len(r.Buf) < StatSize {
		fail(r, errno.EINVAL)
		return
	}
	var size int64
	if f.Node != nil {
		size = f.Node.Size()
	}
	encodeStat(r.Buf, size, StatModeFile)
}

// Vector I/O convention: Args[1] holds iovcnt; the first 8×iovcnt bytes
// of Buf are little-endian segment lengths, followed by the data area
// (concatenated segments).
func iovecs(r *Request) (lens []int, data []byte, err error) {
	cnt := int(r.Args[1])
	if cnt <= 0 || cnt > 1024 || len(r.Buf) < 8*cnt {
		return nil, nil, errno.EINVAL
	}
	data = r.Buf[8*cnt:]
	total := 0
	lens = make([]int, cnt)
	for i := 0; i < cnt; i++ {
		lens[i] = int(binary.LittleEndian.Uint64(r.Buf[8*i:]))
		// Compared against what is left, so the sum cannot wrap.
		if lens[i] < 0 || lens[i] > len(data)-total {
			return nil, nil, errno.EINVAL
		}
		total += lens[i]
	}
	return lens, data, nil
}

func sysReadv(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	lens, data, err := iovecs(r)
	if err != nil {
		fail(r, err)
		return
	}
	var total int64
	off := 0
	for _, l := range lens {
		n, err := f.Read(c.io(), data[off:off+l])
		total += int64(n)
		off += l
		if err != nil || n < l {
			if err != nil && total == 0 {
				fail(r, err)
				return
			}
			break
		}
	}
	r.Ret = total
}

func sysWritev(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	lens, data, err := iovecs(r)
	if err != nil {
		fail(r, err)
		return
	}
	var total int64
	off := 0
	for _, l := range lens {
		n, err := f.Write(c.io(), data[off:off+l])
		total += int64(n)
		off += l
		if err != nil {
			if total == 0 {
				fail(r, err)
				return
			}
			break
		}
	}
	r.Ret = total
}

// sysDup shares the open-file description (and therefore the file
// offset) under a new descriptor, per POSIX.
func sysDup(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
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

// sysNanosleep: Args[0] = duration in nanoseconds. The OS worker thread
// sleeps on the caller's behalf — a deliberately blocking call.
func sysNanosleep(c *Ctx, r *Request) {
	c.P.Sleep(sim.Time(r.Args[0]))
}

func sysGetpid(c *Ctx, r *Request) {
	r.Ret = int64(c.Proc.PID)
}

func sysUname(c *Ctx, r *Request) {
	id := []byte("GenesysSim 4.11-genesys x86_64+gcn3")
	if len(r.Buf) < len(id) {
		fail(r, errno.EINVAL)
		return
	}
	copy(r.Buf, id)
	r.Ret = int64(len(id))
}

// sysFsync: the simulated SSDFS is write-through, so fsync only charges
// the flush round trip.
func sysFsync(c *Ctx, r *Request) {
	if _, err := c.Proc.FDs.Get(int(int64(r.Args[0]))); err != nil {
		fail(r, err)
		return
	}
	c.P.Sleep(10 * sim.Microsecond)
}

func sysFtruncate(c *Ctx, r *Request) {
	f, err := c.Proc.FDs.Get(int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	if f.Node == nil {
		fail(r, errno.EINVAL)
		return
	}
	if err := f.Node.Truncate(int64(r.Args[1])); err != nil {
		fail(r, err)
	}
}

// sysUnlink: pathname in Buf.
func sysUnlink(c *Ctx, r *Request) {
	if err := c.OS.VFS.Unlink(c.abs(cstr(r.Buf))); err != nil {
		fail(r, err)
	}
}

// sysGetdents64: directory path in Buf (in), newline-separated entry
// names written back into Buf (out); Ret is the byte count.
func sysGetdents(c *Ctx, r *Request) {
	d, err := c.OS.VFS.ResolveDir(c.abs(cstr(r.Buf)))
	if err != nil {
		fail(r, err)
		return
	}
	out := make([]byte, 0, len(r.Buf))
	for _, name := range d.Names() {
		entry := append([]byte(name), '\n')
		if len(out)+len(entry) > len(r.Buf) {
			break
		}
		out = append(out, entry...)
	}
	for i := range r.Buf {
		r.Buf[i] = 0
	}
	copy(r.Buf, out)
	r.Ret = int64(len(out))
}

// sysClockGettime returns the current virtual time in nanoseconds.
func sysClockGettime(c *Ctx, r *Request) {
	r.Ret = int64(c.P.Now())
}

// sysPipe2 creates a pipe; the read and write descriptors are returned
// in OutArgs[0] and OutArgs[1].
func sysPipe2(c *Ctx, r *Request) {
	p := fs.NewPipe(c.OS.E, 0)
	rf, wf := p.Ends()
	rfd, err := c.Proc.FDs.Install(rf)
	if err != nil {
		fail(r, err)
		return
	}
	wfd, err := c.Proc.FDs.Install(wf)
	if err != nil {
		c.Proc.FDs.Close(rfd)
		fail(r, err)
		return
	}
	r.OutArgs[0] = uint64(rfd)
	r.OutArgs[1] = uint64(wfd)
}
