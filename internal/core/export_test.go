package core

// SlotChunks returns how many per-wavefront chunks of the syscall area's
// host copy have been allocated.
func (g *Genesys) SlotChunks() int {
	n := 0
	for _, c := range g.slots {
		if c != nil {
			n++
		}
	}
	return n
}
