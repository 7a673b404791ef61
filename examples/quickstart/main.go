// Quickstart: launch a GPU kernel that invokes POSIX system calls
// directly — it prints to the terminal via write(2) on stdout, then has
// every work-group pwrite its block of a shared output file, exercising
// blocking and non-blocking invocation, relaxed ordering and the drain
// call from §IX of the paper.
package main

import (
	"fmt"
	"log"

	"genesys"
)

func main() {
	m := genesys.NewMachine(genesys.DefaultConfig())
	defer m.Shutdown()
	proc := m.NewProcess("quickstart")

	// Host-side setup: open the output file and hand the descriptor to
	// the GPU program (shared virtual memory makes the fd table common).
	out, err := m.VFS.Open("/tmp/out.bin", genesys.O_CREAT|genesys.O_RDWR)
	if err != nil {
		log.Fatal(err)
	}
	fd, err := proc.FDs.Install(out)
	if err != nil {
		log.Fatal(err)
	}

	const (
		workGroups = 8
		blockSize  = 4096
	)

	m.E.Spawn("host", func(p *genesys.Proc) {
		k := m.GPU.Launch(p, genesys.Kernel{
			Name:       "quickstart",
			WorkGroups: workGroups,
			WGSize:     256,
			Fn: func(w *genesys.Wavefront) {
				// Every work-group announces itself on the terminal
				// (blocking write at work-group granularity).
				line := fmt.Sprintf("work-group %d: writing block at offset %d\n",
					w.WG.ID, w.WG.ID*blockSize)
				m.Genesys.InvokeWG(w, genesys.Request{
					NR:   genesys.SYS_write,
					Args: [6]uint64{1, uint64(len(line))},
					Buf:  []byte(line),
				}, genesys.Options{Blocking: true, Wait: genesys.WaitPoll,
					Ordering: genesys.Relaxed, Kind: genesys.Consumer})

				// Then pwrite the group's block — non-blocking with weak
				// ordering, so the work-group can retire while the CPU
				// processes the call.
				block := make([]byte, blockSize)
				for i := range block {
					block[i] = byte('A' + w.WG.ID)
				}
				m.Genesys.InvokeWG(w, genesys.Request{
					NR:   genesys.SYS_pwrite64,
					Args: [6]uint64{uint64(fd), blockSize, uint64(w.WG.ID * blockSize)},
					Buf:  block,
				}, genesys.Options{Blocking: false,
					Ordering: genesys.Relaxed, Kind: genesys.Consumer})
			},
		})
		k.Wait(p)
		// §IX: ensure all outstanding non-blocking GPU system calls have
		// completed before the process exits.
		m.Genesys.Drain(p)
		fmt.Printf("kernel ran for %v of virtual time\n", k.Runtime())
	})

	if err := m.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Print(m.OS.Console.Contents())
	data, err := m.ReadFile("/tmp/out.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output file: %d bytes; block 0 starts with %q, block 7 with %q\n",
		len(data), data[0], data[7*blockSize])
	fmt.Printf("GPU syscalls invoked: %d (slots: %d KiB syscall area)\n",
		m.Genesys.Invocations, m.Genesys.AreaBytes()/1024)
}
