package workloads

import (
	"fmt"
	"strings"
)

// App is one entry of the paper's Table I: the applications GENESYS
// enables or re-enables, the system calls each exercises, and where this
// repository implements it.
type App struct {
	Type        string
	Name        string
	Syscalls    string
	Description string
	// Previously reports whether the paper classes the app as previously
	// realizable (by GPUfs/GPUnet-style systems) or newly enabled.
	Previously bool
	// Where points at the implementation in this repository.
	Where string
}

// TableI returns the paper's application inventory (Table I), annotated
// with this repository's implementations.
func TableI() []App {
	return []App{
		{
			Type: "Memory Management", Name: "miniamr",
			Syscalls:    "madvise, getrusage",
			Description: "uses madvise to return unused memory to the OS (§VIII-A)",
			Where:       "workloads.RunMiniAMR, examples/miniamr, fig11",
		},
		{
			Type: "Signals", Name: "signal-search",
			Syscalls:    "rt_sigqueueinfo",
			Description: "signals notify the host about partial work completion (§VIII-B)",
			Where:       "workloads.RunSignalSearch, examples/signalsearch, fig12",
		},
		{
			Type: "Filesystem", Name: "grep",
			Syscalls:    "read, open, close, write",
			Description: "work-item invocations not supported by prior work; prints to terminal (§VIII-C)",
			Where:       "workloads.NewGrepCorpus + RunGrep, examples/gpugrep, fig13a",
		},
		{
			Type: "Device Control", Name: "bmp-display",
			Syscalls:    "ioctl, mmap",
			Description: "kernel-granularity invocation to query and set framebuffer properties (§VIII-E)",
			Where:       "workloads.RunBMPDisplay, examples/fbdisplay, fig16",
		},
		{
			Type: "Filesystem", Name: "wordsearch (wordcount)",
			Syscalls:    "open, read, close, pread",
			Description: "the workload of prior work (GPUfs), via standard POSIX (§VIII-C)",
			Previously:  true,
			Where:       "workloads.NewWordcountCorpus + RunWordcount, fig13b/fig14",
		},
		{
			Type: "Network", Name: "memcached",
			Syscalls:    "sendto, recvfrom",
			Description: "possible with GPUnet, but no RDMA needed for performance (§VIII-D)",
			Previously:  true,
			Where:       "workloads.RunMemcached, examples/memcached, fig15",
		},
	}
}

// RenderTableI formats the inventory like the paper's Table I.
func RenderTableI() string {
	var b strings.Builder
	b.WriteString("Table I: GENESYS enables new classes of applications and supports all prior work\n\n")
	write := func(hdr string, prev bool) {
		fmt.Fprintf(&b, "%s\n", hdr)
		for _, a := range TableI() {
			if a.Previously != prev {
				continue
			}
			fmt.Fprintf(&b, "  %-18s %-22s %s\n", a.Type, a.Name, a.Syscalls)
			fmt.Fprintf(&b, "  %-18s %-22s -> %s\n", "", "", a.Description)
			fmt.Fprintf(&b, "  %-18s %-22s => %s\n", "", "", a.Where)
		}
		b.WriteString("\n")
	}
	write("Previously unrealizable:", false)
	write("Previously realizable:", true)
	return b.String()
}
