package workloads

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"genesys/internal/core"
	"genesys/internal/cpu"
	"genesys/internal/errno"
	"genesys/internal/fs"
	"genesys/internal/gclib"
	"genesys/internal/gpu"
	"genesys/internal/netstack"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// MemcachedVariant selects a Figure 15 configuration.
type MemcachedVariant int

const (
	// MemcachedCPU serves GETs with CPU threads.
	MemcachedCPU MemcachedVariant = iota
	// MemcachedGPUNoSyscall batches requests on the CPU, launches a
	// kernel per batch and replies from the CPU.
	MemcachedGPUNoSyscall
	// MemcachedGENESYS serves GETs from persistent GPU work-groups using
	// sendto/recvfrom at work-group granularity (blocking, weak — the
	// paper's best configuration, §VIII-D).
	MemcachedGENESYS
)

func (v MemcachedVariant) String() string {
	switch v {
	case MemcachedCPU:
		return "CPU"
	case MemcachedGPUNoSyscall:
		return "GPU-no-syscall"
	case MemcachedGENESYS:
		return "GENESYS"
	}
	return "unknown"
}

// Memcached wire format (binary UDP, GET only on the GPU path):
//
//	request:  op(1)=0 GET | seq(4) | bucket(4) | keyIdx(4)
//	reply:    status(1)   | seq(4) | value...
const (
	mcOpGet     = 0
	mcHdrSize   = 13
	mcReplyHdr  = 5
	mcServerUDP = 11211
)

// MemcachedConfig parameterizes the §VIII-D network case study.
type MemcachedConfig struct {
	Variant        MemcachedVariant
	Buckets        int
	ElemsPerBucket int
	ValueBytes     int
	Requests       int
	// ClientInterval is the open-loop request inter-arrival time.
	ClientInterval sim.Time
	// CPUComparePerElem is the CPU cost of one key comparison during the
	// linear bucket scan.
	CPUComparePerElem sim.Time
	// GPUScanTime is the time a work-group needs to scan a bucket in
	// parallel (hash, lookup and data copy parallelized — §VIII-D).
	GPUScanTime sim.Time
	// ServerThreads / ServerWGs size the two server styles.
	ServerThreads int
	ServerWGs     int
	// Batch is the GPU-no-syscall batch size.
	Batch int
}

// DefaultMemcachedConfig matches the paper's highlighted point: 1024
// elements per bucket, 1 KiB values.
func DefaultMemcachedConfig(v MemcachedVariant) MemcachedConfig {
	return MemcachedConfig{
		Variant:           v,
		Buckets:           64,
		ElemsPerBucket:    1024,
		ValueBytes:        1 << 10,
		Requests:          2000,
		ClientInterval:    25 * sim.Microsecond,
		CPUComparePerElem: 120 * sim.Nanosecond,
		GPUScanTime:       2 * sim.Microsecond,
		ServerThreads:     3,
		ServerWGs:         4,
		Batch:             16,
	}
}

// MemcachedResult reports one run.
type MemcachedResult struct {
	Completed     int
	MeanLatency   sim.Time
	P99Latency    sim.Time
	ThroughputRPS float64
	// Correct counts replies whose value matched the expected entry.
	Correct int
}

// mcTable is the fixed-size hash table shared between CPU and GPU.
type mcTable struct {
	buckets [][]mcEntry
}

type mcEntry struct {
	key   uint64
	value []byte
}

// newMCTable builds the table. Entry (b, e) holds fillPattern with seed
// byte(b*31+e), so the table has at most 256 distinct values; values are
// only ever read (get, then a copy into the reply), so entries with the
// same seed share one backing array.
func newMCTable(cfg MemcachedConfig) *mcTable {
	t := &mcTable{buckets: make([][]mcEntry, cfg.Buckets)}
	var bySeed [256][]byte
	for b := range t.buckets {
		t.buckets[b] = make([]mcEntry, cfg.ElemsPerBucket)
		for e := range t.buckets[b] {
			seed := byte(b*31 + e)
			if bySeed[seed] == nil {
				bySeed[seed] = make([]byte, cfg.ValueBytes)
				fillPattern(bySeed[seed], seed)
			}
			t.buckets[b][e] = mcEntry{key: mcKey(b, e), value: bySeed[seed]}
		}
	}
	return t
}

func mcKey(bucket, elem int) uint64 {
	return uint64(bucket)<<32 | uint64(elem) | 1<<63
}

// get performs the linear bucket scan and returns the value and the
// number of comparisons performed.
func (t *mcTable) get(bucket, elem int) ([]byte, int) {
	b := t.buckets[bucket%len(t.buckets)]
	want := mcKey(bucket%len(t.buckets), elem)
	for i := range b {
		if b[i].key == want {
			return b[i].value, i + 1
		}
	}
	return nil, len(b)
}

func mcRequest(seq uint32, bucket, elem int) []byte {
	return mcRequestInto(nil, seq, bucket, elem)
}

// mcRequestInto encodes a GET request into b's storage when it is large
// enough (allocating otherwise) — the per-request fast path for clients
// that reuse one scratch buffer.
func mcRequestInto(b []byte, seq uint32, bucket, elem int) []byte {
	if cap(b) >= mcHdrSize {
		b = b[:mcHdrSize]
	} else {
		b = make([]byte, mcHdrSize)
	}
	b[0] = mcOpGet
	binary.LittleEndian.PutUint32(b[1:], seq)
	binary.LittleEndian.PutUint32(b[5:], uint32(bucket))
	binary.LittleEndian.PutUint32(b[9:], uint32(elem))
	return b
}

func mcReply(seq uint32, value []byte) []byte {
	return mcReplyInto(nil, seq, value)
}

// mcReplyInto is mcReply reusing b's storage when possible (see
// mcRequestInto).
func mcReplyInto(b []byte, seq uint32, value []byte) []byte {
	n := mcReplyHdr + len(value)
	if cap(b) >= n {
		b = b[:n]
	} else {
		b = make([]byte, n)
	}
	b[0] = 0
	binary.LittleEndian.PutUint32(b[1:], seq)
	copy(b[mcReplyHdr:], value)
	return b
}

// RunMemcached executes one variant: open-loop clients issue GETs at a
// fixed rate; the server answers per the variant; latency is measured per
// completed request.
func RunMemcached(m *platform.Machine, cfg MemcachedConfig) (MemcachedResult, error) {
	pr := m.NewProcess("memcached")
	table := newMCTable(cfg)
	g := m.Genesys

	var res MemcachedResult
	latencies := make([]float64, 0, cfg.Requests)
	var firstSend, lastReply sim.Time

	// Client: one open-loop sender plus a reply collector.
	clientSock := m.Net.NewSocket()
	if err := clientSock.Bind(0); err != nil {
		return res, err
	}
	sentAt := make(map[uint32]sim.Time, cfg.Requests)
	expect := make(map[uint32][2]int, cfg.Requests)

	m.E.Spawn("client-send", func(p *sim.Proc) {
		rng := p.Rand()
		firstSend = p.Now()
		for i := 0; i < cfg.Requests; i++ {
			seq := uint32(i)
			bucket := rng.Intn(cfg.Buckets)
			elem := rng.Intn(cfg.ElemsPerBucket)
			sentAt[seq] = p.Now()
			expect[seq] = [2]int{bucket, elem}
			clientSock.SendTo(mcServerUDP, mcRequest(seq, bucket, elem))
			p.Sleep(cfg.ClientInterval)
		}
	})
	m.E.SpawnDaemon("client-recv", func(p *sim.Proc) {
		for {
			dg, err := clientSock.RecvFrom(p)
			if err != nil {
				return
			}
			if len(dg.Data) < mcReplyHdr {
				continue
			}
			seq := binary.LittleEndian.Uint32(dg.Data[1:])
			t0, ok := sentAt[seq]
			if !ok {
				continue
			}
			delete(sentAt, seq)
			res.Completed++
			latencies = append(latencies, float64(p.Now()-t0))
			lastReply = p.Now()
			be := expect[seq]
			want, _ := table.get(be[0], be[1])
			if bytes.Equal(dg.Data[mcReplyHdr:], want) {
				res.Correct++
			}
		}
	})

	serverSock := m.Net.NewSocket()
	if err := serverSock.Bind(mcServerUDP); err != nil {
		return res, err
	}

	switch cfg.Variant {
	case MemcachedCPU:
		for t := 0; t < cfg.ServerThreads; t++ {
			m.E.SpawnDaemon(fmt.Sprintf("mc-server%d", t), func(p *sim.Proc) {
				for {
					dg, err := serverSock.RecvFrom(p)
					if err != nil {
						return
					}
					// recvfrom syscall + linear scan + sendto syscall.
					m.CPU.Exec(p, m.OS.Config().SyscallSoftware, cpu.PrioNormal)
					seq := binary.LittleEndian.Uint32(dg.Data[1:])
					bucket := int(binary.LittleEndian.Uint32(dg.Data[5:]))
					elem := int(binary.LittleEndian.Uint32(dg.Data[9:]))
					val, cmps := table.get(bucket, elem)
					m.CPU.Exec(p, sim.Time(cmps)*cfg.CPUComparePerElem, cpu.PrioNormal)
					m.CPU.Exec(p, m.OS.Config().SyscallSoftware, cpu.PrioNormal)
					serverSock.SendTo(dg.SrcPort, mcReply(seq, val))
				}
			})
		}

	case MemcachedGPUNoSyscall:
		// The CPU accumulates a batch, launches a kernel over it, then
		// sends the replies (Figure 1 left applied to networking).
		m.E.SpawnDaemon("mc-batcher", func(p *sim.Proc) {
			type pending struct {
				seq          uint32
				bucket, elem int
				src          int
			}
			for {
				batch := make([]pending, 0, cfg.Batch)
				for len(batch) < cfg.Batch {
					dg, err := serverSock.RecvFrom(p)
					if err != nil {
						return
					}
					m.CPU.Exec(p, m.OS.Config().SyscallSoftware, cpu.PrioNormal)
					batch = append(batch, pending{
						seq:    binary.LittleEndian.Uint32(dg.Data[1:]),
						bucket: int(binary.LittleEndian.Uint32(dg.Data[5:])),
						elem:   int(binary.LittleEndian.Uint32(dg.Data[9:])),
						src:    dg.SrcPort,
					})
				}
				values := make([][]byte, len(batch))
				k := m.GPU.Launch(p, gpu.Kernel{
					Name: "mc-batch", WorkGroups: len(batch), WGSize: 256,
					Fn: func(w *gpu.Wavefront) {
						w.ComputeTime(cfg.GPUScanTime)
						if w.IsLeader() {
							values[w.WG.ID], _ = table.get(batch[w.WG.ID].bucket, batch[w.WG.ID].elem)
						}
					},
				})
				k.Wait(p)
				for i, pq := range batch {
					m.CPU.Exec(p, m.OS.Config().SyscallSoftware, cpu.PrioNormal)
					serverSock.SendTo(pq.src, mcReply(pq.seq, values[i]))
				}
			}
		})

	case MemcachedGENESYS:
		// Persistent GPU work-groups: recvfrom → parallel lookup →
		// sendto, all from the GPU at work-group granularity.
		fd, err := pr.FDs.Install(newSocketFile(serverSock))
		if err != nil {
			return res, err
		}
		perWG := cfg.Requests / cfg.ServerWGs
		m.E.Spawn("mc-gpu-launcher", func(p *sim.Proc) {
			m.GPU.Launch(p, gpu.Kernel{
				Name: "mc-serve", WorkGroups: cfg.ServerWGs, WGSize: 256,
				Fn: func(w *gpu.Wavefront) {
					// Only the leader's requests and reply read the
					// request header.
					var buf []byte
					if w.IsLeader() {
						buf = make([]byte, mcHdrSize)
					}
					opts := core.Options{Blocking: true, Wait: core.WaitPoll,
						Ordering: core.Relaxed, Kind: core.Producer}
					for i := 0; i < perWG; i++ {
						r, _ := g.InvokeWG(w, syscalls.Request{
							NR:   syscalls.SYS_recvfrom,
							Args: [6]uint64{uint64(fd), mcHdrSize},
							Buf:  buf,
						}, opts)
						// Parallel hash + bucket scan + value copy.
						w.ComputeTime(cfg.GPUScanTime)
						if w.IsLeader() {
							src := int(r.OutArgs[0])
							seq := binary.LittleEndian.Uint32(buf[1:])
							bucket := int(binary.LittleEndian.Uint32(buf[5:]))
							elem := int(binary.LittleEndian.Uint32(buf[9:]))
							val, _ := table.get(bucket, elem)
							reply := mcReply(seq, val)
							g.Invoke(w, syscalls.Request{
								NR:   syscalls.SYS_sendto,
								Args: [6]uint64{uint64(fd), uint64(len(reply)), 0, 0, uint64(src)},
								Buf:  reply,
							}, core.Options{Blocking: true, Wait: core.WaitPoll})
						}
						w.Barrier()
					}
				},
			})
		})
	}

	// End the simulation when all requests are answered or a timeout
	// elapses. UDP drops can leave GPU work-groups blocked in recvfrom
	// forever; that surfaces as a deadlock report, which is an expected
	// outcome here, not an error.
	deadline := sim.Time(cfg.Requests)*cfg.ClientInterval + 500*sim.Millisecond
	if err := m.E.RunUntil(deadline); err != nil {
		var dl *sim.ErrDeadlock
		if !errors.As(err, &dl) {
			return res, err
		}
	}
	if res.Completed > 0 {
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		res.MeanLatency = sim.Time(sum / float64(res.Completed))
		res.P99Latency = sim.Time(sim.Percentiles(latencies, 99)[0])
		span := lastReply - firstSend
		if span > 0 {
			res.ThroughputRPS = float64(res.Completed) / span.Seconds()
		}
	}
	return res, nil
}

// newSocketFile wraps a socket as an open-file description for the fd
// table (sockets are files).
func newSocketFile(s *netstack.Socket) *fs.File {
	return &fs.File{Special: s, Path: "socket:[udp]"}
}

// --- fleet serving (service-fleet scenario, fleet.go) -----------------------
//
// The fleet upgrade of the §VIII-D server: instead of one work-group
// blocked per socket, each persistent work-group multiplexes a shard of
// sockets through poll(2) at work-group granularity — the readiness
// syscall is what lets a handful of work-groups serve a million-client
// population. Both serving loops run until *stop flips, which the fleet
// harness does once every client session has resolved.

// fleetUDPServerFn returns the kernel body for one UDP shard: the
// work-group polls its shard's sockets, and for each readable one does
// recvfrom → parallel bucket scan → sendto, all collectively.
func fleetUDPServerFn(c gclib.C, table *mcTable, wgFDs [][]int,
	scan, tick sim.Time, valueBytes int, stop *bool) func(*gpu.Wavefront) {
	return func(w *gpu.Wavefront) {
		fds := wgFDs[w.WG.ID]
		buf := make([]byte, mcHdrSize)
		// Per-wavefront scratch: the poll encoding/ready set and the reply
		// buffer are reused across every request the shard ever serves.
		var ps gclib.PollScratch
		reply := make([]byte, 0, mcReplyHdr+valueBytes)
		for !*stop {
			// One timed poll bounds the stop-flag latency; nonblocking
			// re-polls then drain the burst, so a backlogged shard is served
			// at syscall rate rather than one datagram per tick.
			ready, err := c.PollWith(w, fds, tick, &ps)
			for err == errno.OK && len(ready) > 0 && !*stop {
				for _, idx := range ready {
					n, src, rerr := c.RecvFromTimeout(w, fds[idx], buf, tick)
					if rerr != errno.OK || n < mcHdrSize {
						continue
					}
					// Parallel hash + bucket scan + value copy (§VIII-D).
					w.ComputeTime(scan)
					seq := binary.LittleEndian.Uint32(buf[1:])
					bucket := int(binary.LittleEndian.Uint32(buf[5:]))
					elem := int(binary.LittleEndian.Uint32(buf[9:]))
					val, _ := table.get(bucket, elem%valueElems(table, bucket))
					reply = mcReplyInto(reply, seq, val)
					c.SendTo(w, fds[idx], reply, src)
				}
				ready, err = c.PollWith(w, fds, 0, &ps)
			}
			if err == errno.EINTR || err == errno.EAGAIN {
				// A watchdog-aborted poll under fault injection; the
				// shard must keep serving, not shed capacity.
				continue
			}
			if err != errno.OK {
				return
			}
		}
	}
}

// valueElems guards the element index against the table's bucket size.
func valueElems(t *mcTable, bucket int) int {
	return len(t.buckets[bucket%len(t.buckets)])
}

// fleetStreamServerFn returns the kernel body for the stream work-group:
// it polls the listener plus every accepted connection, accepting,
// serving fixed-size GET requests, and retiring connections at EOF.
func fleetStreamServerFn(c gclib.C, table *mcTable, lfd int,
	scan, tick sim.Time, stop *bool) func(*gpu.Wavefront) {
	return func(w *gpu.Wavefront) {
		conns := []int{}
		accum := map[int][]byte{}
		buf := make([]byte, 256)
		timeout := tick
		// Per-wavefront scratch reused every round (see fleetUDPServerFn).
		var ps gclib.PollScratch
		var reply []byte
		fds := []int{lfd}
		for !*stop {
			fds = append(fds[:1], conns...)
			ready, err := c.PollWith(w, fds, timeout, &ps)
			if err == errno.EINTR || err == errno.EAGAIN {
				continue // transient (watchdog abort); keep serving
			}
			if err != errno.OK {
				return
			}
			// Drain mode: while work keeps arriving, re-poll without
			// blocking so a connection burst is accepted and served at
			// syscall rate, not one round per tick.
			if len(ready) > 0 {
				timeout = 0
			} else {
				timeout = tick
			}
			var dead []int
			for _, idx := range ready {
				if idx == 0 {
					// Drain the whole accept backlog; a connection burst
					// must not be admitted one conn per poll round.
					for {
						cfd, _, aerr := c.Accept(w, lfd, sim.Nanosecond)
						if aerr != errno.OK {
							break
						}
						conns = append(conns, cfd)
					}
					continue
				}
				cfd := fds[idx]
				n, rerr := c.Recv(w, cfd, buf, sim.Microsecond)
				if rerr != errno.OK || n == 0 {
					dead = append(dead, cfd)
					continue
				}
				b := append(accum[cfd], buf[:n]...)
				off := 0
				for len(b)-off >= mcHdrSize {
					req := b[off : off+mcHdrSize]
					w.ComputeTime(scan)
					seq := binary.LittleEndian.Uint32(req[1:])
					bucket := int(binary.LittleEndian.Uint32(req[5:]))
					elem := int(binary.LittleEndian.Uint32(req[9:]))
					val, _ := table.get(bucket, elem%valueElems(table, bucket))
					off += mcHdrSize
					reply = mcReplyInto(reply, seq, val)
					if _, serr := c.Send(w, cfd, reply); serr != errno.OK {
						dead = append(dead, cfd)
						break
					}
				}
				// Keep the unconsumed tail at the front so the accumulator's
				// storage is reused instead of re-sliced away.
				accum[cfd] = b[:copy(b, b[off:])]
			}
			for _, cfd := range dead {
				c.Close(w, cfd)
				delete(accum, cfd)
				for i, fd := range conns {
					if fd == cfd {
						conns = append(conns[:i], conns[i+1:]...)
						break
					}
				}
			}
		}
		for _, cfd := range conns {
			c.Close(w, cfd)
		}
	}
}
