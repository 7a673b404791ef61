package blockdev

import (
	"fmt"
	"strings"
)

// CheckpointState renders the device's state as a deterministic byte
// string: transfer counters and each channel's next-free instant (the
// queueing state that shapes future command latencies). Pure reads;
// used as a verification section by internal/ckpt (DESIGN.md §10).
func (d *SSD) CheckpointState() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "blockdev v1\n")
	fmt.Fprintf(&b, "counters read=%d written=%d commands=%d retries=%d\n",
		d.BytesRead, d.BytesWritten, d.Commands, d.Retries)
	for i, t := range d.chFree {
		fmt.Fprintf(&b, "channel %d free_at=%d\n", i, int64(t))
	}
	return []byte(b.String())
}
