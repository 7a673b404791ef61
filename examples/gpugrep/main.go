// gpugrep runs the paper's §VIII-C grep case study: grep -F -l over a
// corpus, comparing the CPU and OpenMP baselines against GENESYS at
// work-group and work-item granularity (polling and halt-resume), and
// printing matching filenames to the simulated terminal from the GPU.
package main

import (
	"fmt"
	"log"

	"genesys"
	"genesys/internal/workloads"
)

func main() {
	variants := []workloads.GrepVariant{
		workloads.GrepCPU,
		workloads.GrepOpenMP,
		workloads.GrepGPUWorkGroup,
		workloads.GrepGPUWorkItemPoll,
		workloads.GrepGPUWorkItemHalt,
	}
	// Every variant greps the same files; each machine's files borrow
	// the corpus's pages.
	corpus := workloads.NewGrepCorpus(workloads.DefaultGrepConfig(workloads.GrepCPU))
	var cpuTime genesys.Time
	for _, v := range variants {
		m := genesys.NewMachine(genesys.DefaultConfig())
		res, err := workloads.RunGrep(m, workloads.DefaultGrepConfig(v), corpus)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Correct() {
			log.Fatalf("%v: wrong answer: %v (want %v)", v, res.Found, res.Expected)
		}
		if v == workloads.GrepCPU {
			cpuTime = res.Runtime
		}
		fmt.Printf("%-24s %12v   %5.2fx vs CPU   (%d matching files)\n",
			v, res.Runtime, float64(cpuTime)/float64(res.Runtime), len(res.Found))
		if v == workloads.GrepGPUWorkItemHalt {
			fmt.Println("\nterminal output of the last run (printed from the GPU):")
			for i, line := range res.Found {
				if i == 6 {
					fmt.Printf("  ... and %d more\n", len(res.Found)-6)
					break
				}
				fmt.Printf("  %s\n", line)
			}
		}
		m.Shutdown()
	}
}
