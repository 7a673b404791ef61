package syscalls

import (
	"fmt"
	"slices"
	"sort"

	"genesys/internal/errno"
)

// Class is the paper's three-way classification of Linux system calls
// with respect to GPU invocation (§IV).
type Class int

const (
	// ClassReady: readily-implementable through GENESYS (≈79% of calls).
	ClassReady Class = iota
	// ClassHardware: useful, but implementable only with GPU hardware
	// changes — thread representation in the kernel, a software-visible
	// GPU scheduler, per-work-item program counters (≈13%, Table II).
	ClassHardware
	// ClassExtensive: would require extensive kernel modification (e.g.
	// fork's cloning of GPU execution state) and is not worth the effort
	// today (≈8%).
	ClassExtensive
)

func (c Class) String() string {
	switch c {
	case ClassReady:
		return "readily-implementable"
	case ClassHardware:
		return "needs-GPU-hardware-changes"
	case ClassExtensive:
		return "needs-extensive-kernel-changes"
	}
	return "unknown"
}

// Reasons a call is not readily implementable (Table II's right column).
const (
	ReasonThreadRep = "needs GPU thread representation in the kernel"
	ReasonScheduler = "needs better control over the GPU scheduler"
	ReasonSignals   = "cannot pause/resume or retarget individual GPU threads"
	ReasonArch      = "architecture-specific; not accessible from GPU"
	ReasonLifecycle = "would need to clone/replace GPU execution state"
	ReasonSysAdmin  = "system administration; no GPU-side use without extensive rework"
)

// Info describes one classified system call.
type Info struct {
	NR     int
	Name   string
	Class  Class
	Reason string // empty for ClassReady
}

// classification lists every Linux 4.11 x86-64 system call (0–332), the
// kernel version of the paper's testbed (Table III).
var classification = buildClassification()

func buildClassification() []Info {
	names := []string{
		"read", "write", "open", "close", "stat", "fstat", "lstat", "poll",
		"lseek", "mmap", "mprotect", "munmap", "brk", "rt_sigaction",
		"rt_sigprocmask", "rt_sigreturn", "ioctl", "pread64", "pwrite64",
		"readv", "writev", "access", "pipe", "select", "sched_yield",
		"mremap", "msync", "mincore", "madvise", "shmget", "shmat",
		"shmctl", "dup", "dup2", "pause", "nanosleep", "getitimer",
		"alarm", "setitimer", "getpid", "sendfile", "socket", "connect",
		"accept", "sendto", "recvfrom", "sendmsg", "recvmsg", "shutdown",
		"bind", "listen", "getsockname", "getpeername", "socketpair",
		"setsockopt", "getsockopt", "clone", "fork", "vfork", "execve",
		"exit", "wait4", "kill", "uname", "semget", "semop", "semctl",
		"shmdt", "msgget", "msgsnd", "msgrcv", "msgctl", "fcntl", "flock",
		"fsync", "fdatasync", "truncate", "ftruncate", "getdents",
		"getcwd", "chdir", "fchdir", "rename", "mkdir", "rmdir", "creat",
		"link", "unlink", "symlink", "readlink", "chmod", "fchmod",
		"chown", "fchown", "lchown", "umask", "gettimeofday", "getrlimit",
		"getrusage", "sysinfo", "times", "ptrace", "getuid", "syslog",
		"getgid", "setuid", "setgid", "geteuid", "getegid", "setpgid",
		"getppid", "getpgrp", "setsid", "setreuid", "setregid",
		"getgroups", "setgroups", "setresuid", "getresuid", "setresgid",
		"getresgid", "getpgid", "setfsuid", "setfsgid", "getsid",
		"capget", "capset", "rt_sigpending", "rt_sigtimedwait",
		"rt_sigqueueinfo", "rt_sigsuspend", "sigaltstack", "utime",
		"mknod", "uselib", "personality", "ustat", "statfs", "fstatfs",
		"sysfs", "getpriority", "setpriority", "sched_setparam",
		"sched_getparam", "sched_setscheduler", "sched_getscheduler",
		"sched_get_priority_max", "sched_get_priority_min",
		"sched_rr_get_interval", "mlock", "munlock", "mlockall",
		"munlockall", "vhangup", "modify_ldt", "pivot_root", "_sysctl",
		"prctl", "arch_prctl", "adjtimex", "setrlimit", "chroot", "sync",
		"acct", "settimeofday", "mount", "umount2", "swapon", "swapoff",
		"reboot", "sethostname", "setdomainname", "iopl", "ioperm",
		"create_module", "init_module", "delete_module",
		"get_kernel_syms", "query_module", "quotactl", "nfsservctl",
		"getpmsg", "putpmsg", "afs_syscall", "tuxcall", "security",
		"gettid", "readahead", "setxattr", "lsetxattr", "fsetxattr",
		"getxattr", "lgetxattr", "fgetxattr", "listxattr", "llistxattr",
		"flistxattr", "removexattr", "lremovexattr", "fremovexattr",
		"tkill", "time", "futex", "sched_setaffinity", "sched_getaffinity",
		"set_thread_area", "io_setup", "io_destroy", "io_getevents",
		"io_submit", "io_cancel", "get_thread_area", "lookup_dcookie",
		"epoll_create", "epoll_ctl_old", "epoll_wait_old",
		"remap_file_pages", "getdents64", "set_tid_address",
		"restart_syscall", "semtimedop", "fadvise64", "timer_create",
		"timer_settime", "timer_gettime", "timer_getoverrun",
		"timer_delete", "clock_settime", "clock_gettime", "clock_getres",
		"clock_nanosleep", "exit_group", "epoll_wait", "epoll_ctl",
		"tgkill", "utimes", "vserver", "mbind", "set_mempolicy",
		"get_mempolicy", "mq_open", "mq_unlink", "mq_timedsend",
		"mq_timedreceive", "mq_notify", "mq_getsetattr", "kexec_load",
		"waitid", "add_key", "request_key", "keyctl", "ioprio_set",
		"ioprio_get", "inotify_init", "inotify_add_watch",
		"inotify_rm_watch", "migrate_pages", "openat", "mkdirat",
		"mknodat", "fchownat", "futimesat", "newfstatat", "unlinkat",
		"renameat", "linkat", "symlinkat", "readlinkat", "fchmodat",
		"faccessat", "pselect6", "ppoll", "unshare", "set_robust_list",
		"get_robust_list", "splice", "tee", "sync_file_range", "vmsplice",
		"move_pages", "utimensat", "epoll_pwait", "signalfd",
		"timerfd_create", "eventfd", "fallocate", "timerfd_settime",
		"timerfd_gettime", "accept4", "signalfd4", "eventfd2",
		"epoll_create1", "dup3", "pipe2", "inotify_init1", "preadv",
		"pwritev", "rt_tgsigqueueinfo", "perf_event_open", "recvmmsg",
		"fanotify_init", "fanotify_mark", "prlimit64", "name_to_handle_at",
		"open_by_handle_at", "clock_adjtime", "syncfs", "sendmmsg",
		"setns", "getcpu", "process_vm_readv", "process_vm_writev",
		"kcmp", "finit_module", "sched_setattr", "sched_getattr",
		"renameat2", "seccomp", "getrandom", "memfd_create",
		"kexec_file_load", "bpf", "execveat", "userfaultfd", "membarrier",
		"mlock2", "copy_file_range", "preadv2", "pwritev2",
		"pkey_mprotect", "pkey_alloc", "pkey_free", "statx",
	}

	hardware := map[string]string{
		// capabilities / namespaces / policies (Table II rows 1-3)
		"capget": ReasonThreadRep, "capset": ReasonThreadRep,
		"setns":         ReasonThreadRep,
		"set_mempolicy": ReasonThreadRep, "get_mempolicy": ReasonThreadRep,
		"mbind": ReasonThreadRep, "migrate_pages": ReasonThreadRep,
		"move_pages": ReasonThreadRep,
		// thread scheduling (Table II row 4)
		"sched_yield": ReasonScheduler, "sched_setparam": ReasonScheduler,
		"sched_getparam": ReasonScheduler, "sched_setscheduler": ReasonScheduler,
		"sched_getscheduler":     ReasonScheduler,
		"sched_get_priority_max": ReasonScheduler,
		"sched_get_priority_min": ReasonScheduler,
		"sched_rr_get_interval":  ReasonScheduler,
		"sched_setaffinity":      ReasonScheduler,
		"sched_getaffinity":      ReasonScheduler,
		"sched_setattr":          ReasonScheduler, "sched_getattr": ReasonScheduler,
		// signals targeting individual threads (Table II row 5)
		"rt_sigaction": ReasonSignals, "rt_sigprocmask": ReasonSignals,
		"rt_sigreturn": ReasonSignals, "rt_sigpending": ReasonSignals,
		"rt_sigtimedwait": ReasonSignals, "rt_sigsuspend": ReasonSignals,
		"sigaltstack": ReasonSignals, "pause": ReasonSignals,
		"rt_tgsigqueueinfo": ReasonSignals, "restart_syscall": ReasonSignals,
		// architecture-specific (Table II row 6)
		"iopl": ReasonArch, "ioperm": ReasonArch, "arch_prctl": ReasonArch,
		"modify_ldt": ReasonArch, "set_thread_area": ReasonArch,
		"get_thread_area": ReasonArch,
		// per-thread identity and blocking primitives
		"tkill": ReasonThreadRep, "tgkill": ReasonThreadRep,
		"set_tid_address": ReasonThreadRep, "set_robust_list": ReasonThreadRep,
		"get_robust_list": ReasonThreadRep, "futex": ReasonThreadRep,
		"userfaultfd": ReasonThreadRep,
	}

	extensive := map[string]string{
		"clone": ReasonLifecycle, "fork": ReasonLifecycle,
		"vfork": ReasonLifecycle, "execve": ReasonLifecycle,
		"execveat": ReasonLifecycle, "exit": ReasonLifecycle,
		"exit_group": ReasonLifecycle, "wait4": ReasonLifecycle,
		"waitid": ReasonLifecycle, "kill": ReasonLifecycle,
		"ptrace": ReasonLifecycle,
		"reboot": ReasonSysAdmin, "kexec_load": ReasonSysAdmin,
		"kexec_file_load": ReasonSysAdmin, "init_module": ReasonSysAdmin,
		"finit_module": ReasonSysAdmin, "delete_module": ReasonSysAdmin,
		"pivot_root": ReasonSysAdmin, "chroot": ReasonSysAdmin,
		"mount": ReasonSysAdmin, "umount2": ReasonSysAdmin,
		"swapon": ReasonSysAdmin, "swapoff": ReasonSysAdmin,
		"acct": ReasonSysAdmin, "vhangup": ReasonSysAdmin,
		"bpf": ReasonSysAdmin, "perf_event_open": ReasonSysAdmin,
	}

	out := make([]Info, len(names))
	for nr, name := range names {
		info := Info{NR: nr, Name: name, Class: ClassReady}
		if r, ok := hardware[name]; ok {
			info.Class, info.Reason = ClassHardware, r
		} else if r, ok := extensive[name]; ok {
			info.Class, info.Reason = ClassExtensive, r
		}
		out[nr] = info
	}
	return out
}

// Classification returns the full classified table in syscall-number
// order.
func Classification() []Info {
	out := make([]Info, len(classification))
	copy(out, classification)
	return out
}

// Name returns the name of system call nr ("sys_<nr>" for numbers
// outside the classified table).
func Name(nr int) string {
	if nr >= 0 && nr < len(classification) {
		return classification[nr].Name
	}
	return fmt.Sprintf("sys_%d", nr)
}

// ClassifyName returns the classification of a syscall by name.
func ClassifyName(name string) (Info, bool) {
	for _, in := range classification {
		if in.Name == name {
			return in, true
		}
	}
	return Info{}, false
}

// ClassCounts returns the number of calls in each class and the total.
func ClassCounts() (ready, hardware, extensive, total int) {
	for _, in := range classification {
		switch in.Class {
		case ClassReady:
			ready++
		case ClassHardware:
			hardware++
		case ClassExtensive:
			extensive++
		}
	}
	return ready, hardware, extensive, len(classification)
}

// ClassificationSummary renders the §IV percentages.
func ClassificationSummary() string {
	r, h, x, n := ClassCounts()
	pct := func(c int) float64 { return 100 * float64(c) / float64(n) }
	return fmt.Sprintf(
		"Linux x86-64 system calls (kernel 4.11): %d total\n"+
			"  readily-implementable:            %3d (%.1f%%)\n"+
			"  need GPU hardware changes:        %3d (%.1f%%)\n"+
			"  need extensive kernel changes:    %3d (%.1f%%)\n"+
			"  implemented in this GENESYS:      %3d\n",
		n, r, pct(r), h, pct(h), x, pct(x), ImplementedCount())
}

// restartable marks the calls eligible for transparent restart after a
// transient EINTR/EAGAIN/ENOMEM failure — the SA_RESTART-style
// eligibility the gclib restartable-syscall layer and the kernel-side
// non-blocking restart consult. Eligible: idempotent-at-retry I/O,
// metadata and allocation calls. Excluded: calls whose side effect must
// not repeat (close releases the descriptor even on failure; signal
// sends would duplicate), and time/wait calls whose interval semantics a
// blind restart would corrupt (nanosleep, poll, select, pause).
var restartable = buildRestartable()

func buildRestartable() map[int]bool {
	eligible := []string{
		// byte I/O: a failed attempt moved no data, so retrying is safe
		"read", "write", "pread64", "pwrite64", "readv", "writev",
		"preadv", "pwritev", "preadv2", "pwritev2", "sendfile",
		// descriptor producers and file metadata
		"open", "openat", "creat", "lseek", "stat", "fstat", "lstat",
		"access", "getdents", "getdents64", "getcwd", "chdir",
		"truncate", "ftruncate", "mkdir", "rmdir", "unlink", "rename",
		"fsync", "fdatasync", "flock", "ioctl",
		// sockets: datagram ops that failed delivered nothing
		"socket", "bind", "connect", "accept", "accept4",
		"sendto", "recvfrom", "sendmsg", "recvmsg", "sendmmsg", "recvmmsg",
		// memory management: ENOMEM may clear as reclaim frees pages
		"mmap", "munmap", "madvise", "mremap",
		// queries
		"getrusage", "getpid", "clock_gettime", "gettimeofday",
	}
	byName := make(map[string]int, len(classification))
	for _, in := range classification {
		byName[in.Name] = in.NR
	}
	out := make(map[int]bool, len(eligible))
	for _, name := range eligible {
		nr, ok := byName[name]
		if !ok {
			panic("syscalls: unknown restartable name " + name)
		}
		out[nr] = true
	}
	return out
}

// Restartable reports whether the system call nr may be transparently
// reissued after a Transient failure.
func Restartable(nr int) bool { return restartable[nr] }

// transientErrnos are the transient failures, in the order an injected
// SyscallErrno fault rotates through them.
var transientErrnos = [...]errno.Errno{errno.EINTR, errno.EAGAIN, errno.ENOMEM}

// Transient reports whether e is a transient failure (EINTR, EAGAIN or
// ENOMEM), after which a Restartable call may be reissued.
func Transient(e errno.Errno) bool { return slices.Contains(transientErrnos[:], e) }

// ByClass returns the names in a class, sorted.
func ByClass(c Class) []string {
	var out []string
	for _, in := range classification {
		if in.Class == c {
			out = append(out, in.Name)
		}
	}
	sort.Strings(out)
	return out
}
