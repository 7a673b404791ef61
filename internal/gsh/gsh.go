// Package gsh implements a tiny "GPU shell": classic Unix one-liners
// (ls, cat, wc, grep, stat, df) executed as GPU kernels that obtain every
// byte through GENESYS system calls and print through write(2) on the
// simulated terminal. It is the "legacy software written to invoke
// OS-managed services" demonstration the paper's introduction promises:
// the commands' logic is ordinary file-walking code, unchanged except
// that it runs on wavefronts.
package gsh

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"genesys/internal/errno"
	"genesys/internal/fault"
	"genesys/internal/fs"
	"genesys/internal/gclib"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sim"
)

// Shell runs commands on one machine. Its command history (including
// host-written prologue files, recorded by WriteFile) is the session's
// checkpoint recipe: replaying it on a fresh machine with the same seed
// rebuilds the session bit-identically (see ckpt.go).
type Shell struct {
	M *platform.Machine
	C gclib.C

	history []string
}

// New builds a shell over m, creating a process if none is bound.
func New(m *platform.Machine) *Shell {
	if m.Genesys.Process() == nil {
		m.NewProcess("gsh")
	}
	return &Shell{M: m, C: gclib.C{G: m.Genesys}}
}

// WriteFile creates path with the given contents host-side (setup
// helper) and records the write in the session history, so a restored
// session replays it. Use this instead of Machine.WriteFile when the
// session may be checkpointed. As there, data must not change after the
// call.
func (s *Shell) WriteFile(path string, data []byte) error {
	if err := s.M.WriteFile(path, data); err != nil {
		return err
	}
	s.history = append(s.history, writeFileEntry(path, data))
	return nil
}

// Run parses and executes one command line on the GPU and returns the
// terminal output produced. Session commands (ckpt, replay) execute
// host-side and are not recorded in the checkpoint history.
func (s *Shell) Run(line string) (string, error) {
	args := strings.Fields(line)
	if len(args) == 0 {
		return "", nil
	}
	switch args[0] {
	case "ckpt":
		return s.cmdCkpt(args[1:])
	case "replay":
		return s.cmdReplay(args[1:])
	}
	cmd, ok := commands[args[0]]
	if !ok {
		return "", fmt.Errorf("gsh: unknown command %q (have: %s)", args[0],
			strings.Join(CommandNames(), ", "))
	}
	s.history = append(s.history, line)
	before := len(s.M.OS.Console.Contents())
	var runErr error
	s.M.E.Spawn("gsh:"+args[0], func(p *sim.Proc) {
		k := s.M.GPU.Launch(p, gpu.Kernel{
			Name: "gsh-" + args[0], WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				if err := cmd.fn(s, w, args[1:]); err != nil && w.IsLeader() {
					runErr = err
					s.C.Printf(w, "gsh: %s: %v\n", args[0], err)
				}
			},
		})
		k.Wait(p)
		s.M.Genesys.Drain(p)
	})
	if err := s.M.E.Run(); err != nil {
		return "", err
	}
	return s.M.OS.Console.Contents()[before:], runErr
}

type command struct {
	usage string
	fn    func(s *Shell, w *gpu.Wavefront, args []string) error
}

var commands = map[string]command{
	"ls":       {"ls <dir>", cmdLs},
	"cat":      {"cat <file>", cmdCat},
	"wc":       {"wc <file>", cmdWc},
	"grep":     {"grep <word> <file...>", cmdGrep},
	"stat":     {"stat <path>", cmdStat},
	"df":       {"df", cmdDf},
	"metrics":  {"metrics", cmdMetrics},
	"util":     {"util", cmdUtil},
	"critpath": {"critpath", cmdCritpath},
	"slo":      {"slo", cmdSLO},
	"flight":   {"flight", cmdFlight},
	"top":      {topUsage, cmdTop},
}

// help is registered in init: cmdHelp renders Usage, which reads the
// commands map, and a literal entry would be an initialization cycle.
func init() {
	commands["help"] = command{"help", cmdHelp}
}

// CommandNames lists the available commands.
func CommandNames() []string {
	names := make([]string, 0, len(commands))
	for n := range commands {
		names = append(names, n)
	}
	// deterministic order
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return names
}

// Usage returns the usage lines of every command.
func Usage() string {
	var b strings.Builder
	for _, n := range CommandNames() {
		fmt.Fprintf(&b, "  %s\n", commands[n].usage)
	}
	return b.String()
}

func oneArg(args []string) (string, error) {
	if len(args) != 1 {
		return "", errno.EINVAL
	}
	return args[0], nil
}

func cmdLs(s *Shell, w *gpu.Wavefront, args []string) error {
	dir := "/"
	if len(args) == 1 {
		dir = args[0]
	}
	names, err := s.C.Getdents(w, dir)
	if err != errno.OK {
		return err
	}
	for _, n := range names {
		size, isDir, serr := s.C.Stat(w, strings.TrimRight(dir, "/")+"/"+n)
		kind := "-"
		if serr == errno.OK && isDir {
			kind = "d"
		}
		s.C.Printf(w, "%s %8d %s\n", kind, size, n)
	}
	return nil
}

// maxInput caps the bytes cat, wc and grep read from one file: input
// that never ends (/dev/zero) stops the command with an error instead of
// running it, and growing the console, forever.
const maxInput = 1 << 20

var errInputTooLong = fmt.Errorf("input exceeds %d bytes", maxInput)

// readChunks reads fd to EOF in 4 KiB chunks and passes each to chunk.
// It returns the read's errno, or an error naming path once more than
// maxInput bytes arrive; the chunk past the budget is not passed on.
func (s *Shell) readChunks(w *gpu.Wavefront, fd int, path string, chunk func([]byte)) error {
	buf := make([]byte, 4096)
	for total := 0; ; {
		n, rerr := s.C.Read(w, fd, buf)
		if rerr != errno.OK {
			return rerr
		}
		if n == 0 {
			return nil
		}
		if total += n; total > maxInput {
			return fmt.Errorf("%s: %w", path, errInputTooLong)
		}
		chunk(buf[:n])
	}
}

func cmdCat(s *Shell, w *gpu.Wavefront, args []string) error {
	path, err := oneArg(args)
	if err != nil {
		return err
	}
	fd, oerr := s.C.Open(w, path, fs.O_RDONLY)
	if oerr != errno.OK {
		return oerr
	}
	defer s.C.Close(w, fd)
	return s.readChunks(w, fd, path, func(b []byte) { s.C.Write(w, 1, b) })
}

func cmdWc(s *Shell, w *gpu.Wavefront, args []string) error {
	path, err := oneArg(args)
	if err != nil {
		return err
	}
	fd, oerr := s.C.Open(w, path, fs.O_RDONLY)
	if oerr != errno.OK {
		return oerr
	}
	defer s.C.Close(w, fd)
	var lines, words, size int
	inWord := false
	err = s.readChunks(w, fd, path, func(b []byte) {
		// The whole work-group scans the buffer cooperatively.
		w.ComputeTime(sim.Time(len(b)) * sim.Nanosecond / 8)
		size += len(b)
		for _, c := range b {
			if c == '\n' {
				lines++
			}
			isSpace := c == ' ' || c == '\n' || c == '\t'
			if !isSpace && !inWord {
				words++
			}
			inWord = !isSpace
		}
	})
	if err != nil {
		return err
	}
	s.C.Printf(w, "%7d %7d %7d %s\n", lines, words, size, path)
	return nil
}

func cmdGrep(s *Shell, w *gpu.Wavefront, args []string) error {
	if len(args) < 2 {
		return errno.EINVAL
	}
	word := []byte(args[0])
	for _, path := range args[1:] {
		fd, oerr := s.C.Open(w, path, fs.O_RDONLY)
		if oerr != errno.OK {
			s.C.Printf(w, "gsh: grep: %s: %v\n", path, oerr)
			continue
		}
		lineNo := 1
		var line []byte // the current line, not yet ended by a newline
		err := s.readChunks(w, fd, path, func(b []byte) {
			w.ComputeTime(sim.Time(len(b)) * sim.Nanosecond / 8)
			for {
				i := bytes.IndexByte(b, '\n')
				if i < 0 {
					line = append(line, b...)
					return
				}
				line = append(line, b[:i]...)
				if bytes.Contains(line, word) {
					s.C.Printf(w, "%s:%d:%s\n", path, lineNo, line)
				}
				lineNo++
				line, b = line[:0], b[i+1:]
			}
		})
		s.C.Close(w, fd)
		// A read errno ends this file's scan quietly, as EOF does.
		if errors.Is(err, errInputTooLong) {
			return err
		}
		if bytes.Contains(line, word) {
			s.C.Printf(w, "%s:%d:%s\n", path, lineNo, line)
		}
	}
	return nil
}

func cmdStat(s *Shell, w *gpu.Wavefront, args []string) error {
	path, err := oneArg(args)
	if err != nil {
		return err
	}
	size, isDir, serr := s.C.Stat(w, path)
	if serr != errno.OK {
		return serr
	}
	kind := "regular file"
	if isDir {
		kind = "directory"
	}
	s.C.Printf(w, "  File: %s\n  Size: %d\n  Type: %s\n", path, size, kind)
	return nil
}

func cmdHelp(s *Shell, w *gpu.Wavefront, args []string) error {
	s.C.Printf(w, "gsh commands:\n%s", Usage())
	s.C.Printf(w, "session commands (host-side, not GPU kernels):\n"+
		"  ckpt save <file>   checkpoint this session to a snapshot file\n"+
		"  ckpt load <file>   restore a session snapshot (replaces this session)\n"+
		"  ckpt info <file>   describe a snapshot without restoring it\n"+
		"  replay <file> [workers]  replay a recorded syscall trace\n")
	s.C.Printf(w, "observability:\n"+
		"  top [frames [interval_us]]  live virtual-time dashboard\n"+
		"                              (util, engine, slots, SLO burn; default 1 frame)\n"+
		"  flight                      flight-recorder state and anomaly bundles\n")
	s.C.Printf(w, "machine fault injection (see /sys/genesys/faults): %s\n",
		strings.Join(fault.Profiles(), ", "))
	return nil
}

// catSysfs prints one /sys/genesys view, fetched through the GPU
// syscall path it describes. A single large read: the views are
// regenerated on every read and grow as the shell's own syscalls are
// traced, so chunked reads would tear the text mid-line.
func catSysfs(s *Shell, w *gpu.Wavefront, path string) error {
	fd, oerr := s.C.Open(w, path, fs.O_RDONLY)
	if oerr != errno.OK {
		return oerr
	}
	defer s.C.Close(w, fd)
	buf := make([]byte, 1<<16)
	n, rerr := s.C.Read(w, fd, buf)
	if rerr != errno.OK {
		return rerr
	}
	s.C.Write(w, 1, buf[:n])
	return nil
}

func cmdMetrics(s *Shell, w *gpu.Wavefront, args []string) error {
	return catSysfs(s, w, "/sys/genesys/metrics")
}

func cmdUtil(s *Shell, w *gpu.Wavefront, args []string) error {
	return catSysfs(s, w, "/sys/genesys/util")
}

func cmdCritpath(s *Shell, w *gpu.Wavefront, args []string) error {
	return catSysfs(s, w, "/sys/genesys/critpath")
}

func cmdSLO(s *Shell, w *gpu.Wavefront, args []string) error {
	return catSysfs(s, w, "/sys/genesys/slo")
}

func cmdFlight(s *Shell, w *gpu.Wavefront, args []string) error {
	return catSysfs(s, w, "/sys/genesys/flight")
}

const topUsage = "top [frames [interval_us]]"

// top's upper bounds keep one dashboard run within 100 s of virtual
// time: a large enough interval overflows the clock, and every frame
// costs host time.
const (
	topMaxFrames     = 100
	topMaxIntervalUS = 1_000_000
)

// cmdTop renders the live dashboard: `top [frames [interval_us]]`
// refreshes /sys/genesys/top every interval of *virtual* time (default
// 1 frame; 500µs interval), so successive frames show the machine
// evolving — each read flows through the GPU syscall path like any
// other gsh command.
func cmdTop(s *Shell, w *gpu.Wavefront, args []string) error {
	frames := 1
	interval := 500 * sim.Microsecond
	// Both arguments must be whole positive integers: zero or negative
	// frames render nothing, and a zero or negative interval would make
	// every extra frame re-render the same instant without virtual time
	// ever advancing. strconv (not Sscanf) so trailing garbage like
	// "500x" is a usage error too, not silently truncated.
	if len(args) >= 1 {
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 || n > topMaxFrames {
			return fmt.Errorf("bad frames %q (usage: %s)", args[0], topUsage)
		}
		frames = n
	}
	if len(args) >= 2 {
		us, err := strconv.Atoi(args[1])
		if err != nil || us < 1 || us > topMaxIntervalUS {
			return fmt.Errorf("bad interval_us %q (usage: %s)", args[1], topUsage)
		}
		interval = sim.Time(us) * sim.Microsecond
	}
	for f := 0; f < frames; f++ {
		if f > 0 {
			// Advance virtual time between frames so the refresh shows
			// movement, not the same instant re-rendered.
			w.ComputeTime(interval)
			if w.IsLeader() {
				s.C.Printf(w, "\n")
			}
		}
		if err := catSysfs(s, w, "/sys/genesys/top"); err != nil {
			return err
		}
	}
	return nil
}

func cmdDf(s *Shell, w *gpu.Wavefront, args []string) error {
	fd, oerr := s.C.Open(w, "/proc/meminfo", fs.O_RDONLY)
	if oerr != errno.OK {
		return oerr
	}
	defer s.C.Close(w, fd)
	buf := make([]byte, 512)
	n, rerr := s.C.Read(w, fd, buf)
	if rerr != errno.OK {
		return rerr
	}
	s.C.Write(w, 1, buf[:n])
	return nil
}
