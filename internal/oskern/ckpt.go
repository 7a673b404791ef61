package oskern

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"genesys/internal/fs"
)

// CheckpointState renders the kernel's state as a deterministic byte
// string: worker-pool occupancy, work-queue depth, per-process identity
// (PID, name, open descriptors with offsets and paths, RSS, working
// directory) in PID order, the counters, and a digest of everything
// written to the console so far. Pure reads; used as a verification
// section by internal/ckpt (DESIGN.md §10).
func (o *OS) CheckpointState() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "oskern v1\n")
	fmt.Fprintf(&b, "workers %d idle %d queue_depth %d next_pid %d\n",
		o.workers, o.idleWorkers, o.wq.Len(), o.nextPID)
	fmt.Fprintf(&b, "counters tasks=%d syscalls=%d redispatches=%d orphans_reaped=%d\n",
		o.TasksRun, o.Syscalls, o.Redispatches, o.OrphansReaped)

	h := fnv.New64a()
	h.Write([]byte(o.Console.Contents()))
	fmt.Fprintf(&b, "console bytes=%d digest=%016x\n", o.Console.Size(), h.Sum64())

	pids := make([]int, 0, len(o.procs))
	for pid := range o.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	fmt.Fprintf(&b, "procs %d\n", len(pids))
	for _, pid := range pids {
		pr := o.procs[pid]
		fmt.Fprintf(&b, "proc %d name=%q cwd=%q rss=%d fds=%d\n",
			pr.PID, pr.Name, pr.CWD, pr.MM.RSSBytes(), pr.FDs.OpenCount())
		pr.FDs.ForEach(func(fd int, f *fs.File) {
			kind := "file"
			if f.Special != nil {
				kind = "special"
			} else if f.Device != nil {
				kind = "device"
			}
			fmt.Fprintf(&b, "fd %d kind=%s path=%q pos=%d flags=%d\n",
				fd, kind, f.Path, f.Pos(), f.Flags())
		})
	}
	return []byte(b.String())
}
