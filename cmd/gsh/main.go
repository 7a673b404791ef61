// Command gsh is a tiny "GPU shell": it populates a simulated machine
// with demo files and executes classic Unix one-liners as GPU kernels,
// every byte flowing through GENESYS system calls.
//
// Usage:
//
//	gsh [-trace-cap N] <command...>   # e.g.  gsh ls /tmp
//	gsh demo                          # runs a scripted tour
//
// Commands: cat, critpath, df, flight, grep, ls, metrics, slo, stat,
// top, util, wc; plus the host-side session commands ckpt
// save/load/info <file> and replay <file> (see 'gsh help').
//
// -trace-cap N sets the event-log ring capacity (number of retained
// trace events) for the session's machine.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"genesys/internal/gsh"
	"genesys/internal/obs"
	"genesys/internal/platform"
)

func main() {
	fs := flag.NewFlagSet("gsh", flag.ExitOnError)
	traceCap := fs.Int("trace-cap", 0,
		fmt.Sprintf("event-log ring capacity (0 = default %d)", obs.DefaultEventCap))
	fs.Parse(os.Args[1:])

	cfg := platform.DefaultConfig()
	cfg.EventCap = *traceCap
	m := platform.New(cfg)
	defer m.Shutdown()
	sh := gsh.New(m)

	// Demo corpus, written through the shell so the session stays
	// checkpointable (the writes join the ckpt history).
	sh.WriteFile("/tmp/motd", []byte("welcome to gsh: a shell whose commands run on the GPU\n"))
	sh.WriteFile("/tmp/poem.txt", []byte("roses are red\nviolets are blue\nGPUs make syscalls\nand so can you\n"))

	args := fs.Args()
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: gsh [-trace-cap N] <command...> | gsh demo\ncommands:\n%s", gsh.Usage())
		os.Exit(2)
	}
	lines := []string{strings.Join(args, " ")}
	if args[0] == "demo" {
		lines = []string{
			"cat /tmp/motd",
			"ls /tmp",
			"wc /tmp/poem.txt",
			"grep blue /tmp/poem.txt",
			"stat /tmp/poem.txt",
			"df",
		}
	}
	for _, line := range lines {
		fmt.Printf("gsh$ %s\n", line)
		out, err := sh.Run(line)
		fmt.Print(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "(exit status: %v)\n", err)
		}
	}
	// Read stats off sh.M, not m: a 'ckpt load' swaps the shell's
	// machine for the restored one.
	fmt.Printf("[%d GPU kernels, %d GPU system calls]\n",
		sh.M.GPU.KernelsLaunched, sh.M.Genesys.Invocations)
}
