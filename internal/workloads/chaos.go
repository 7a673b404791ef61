package workloads

import (
	"encoding/binary"
	"fmt"

	"genesys/internal/core"
	"genesys/internal/errno"
	"genesys/internal/fs"
	"genesys/internal/gclib"
	"genesys/internal/gpu"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/sim"
)

// ChaosConfig parameterizes the fault-injection stress workload: every
// work-group exercises the full OS pipeline — open/pread from the SSD
// filesystem, pwrite to tmpfs, and a UDP request/response leg against a
// CPU-side echo server — so a single run touches every injection point
// the fault subsystem defines. With no fault plan armed it doubles as a
// plain mixed-syscall benchmark.
type ChaosConfig struct {
	WorkGroups int      // GPU work-groups (one mixed-op sequence each)
	WGSize     int      // work-items per group
	ChunkBytes int64    // bytes each work-group preads and pwrites
	EchoPort   int      // UDP port of the CPU echo server
	NetTimeout sim.Time // SO_RCVTIMEO-style bound on the echo reply
	MaxResends int      // application-level resends after EAGAIN
	Wait       core.WaitMode
}

// DefaultChaosConfig returns 8 work-groups moving 32 KiB each.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		WorkGroups: 8,
		WGSize:     64,
		ChunkBytes: 32 << 10,
		EchoPort:   7077,
		NetTimeout: 300 * sim.Microsecond,
		MaxResends: 3,
	}
}

// ChaosResult reports one run.
type ChaosResult struct {
	Runtime sim.Time
	// Latency holds one per-work-group end-to-end latency sample (in
	// microseconds) per group, for p50/p95/p99 inflation reporting.
	Latency *obs.Histogram
	// OpsOK / OpsFailed count individual system calls that returned
	// success vs a surfaced errno (after all recovery layers ran).
	OpsOK     int64
	OpsFailed int64
	// EchoOK counts work-groups whose UDP round trip completed (possibly
	// after resends); EchoGaveUp those that exhausted MaxResends.
	EchoOK     int64
	EchoGaveUp int64
	// Validated is false if any successful pread or echo reply carried
	// wrong bytes — recovery must never yield silently-corrupt data.
	Validated bool
}

const chaosPatternSeed = 11

// RunChaos executes the mixed-syscall chaos workload. It always drives
// the run to completion: every injected fault is either transparently
// recovered by the stack or surfaced to the kernel body as an errno,
// which the body tolerates — a hang fails the simulation's own deadlock
// detector.
func RunChaos(m *platform.Machine, cfg ChaosConfig) (ChaosResult, error) {
	if cfg.WorkGroups <= 0 || cfg.WGSize <= 0 || cfg.ChunkBytes <= 0 {
		return ChaosResult{}, fmt.Errorf("chaos: bad config %+v", cfg)
	}
	if cfg.EchoPort <= 0 {
		cfg.EchoPort = 7077
	}
	if cfg.NetTimeout <= 0 {
		cfg.NetTimeout = 300 * sim.Microsecond
	}

	m.NewProcess("chaos")
	if err := stagePattern(m, "/data/chaos.dat", cfg.ChunkBytes*int64(cfg.WorkGroups), chaosPatternSeed); err != nil {
		return ChaosResult{}, err
	}

	// CPU-side UDP echo server. A daemon, so an in-flight datagram lost
	// to injection never stalls quiescence; its replies traverse the same
	// lossy network the requests do.
	echoSock := m.Net.NewSocket()
	if err := echoSock.Bind(cfg.EchoPort); err != nil {
		return ChaosResult{}, err
	}
	m.E.SpawnDaemon("chaos-echo", func(p *sim.Proc) {
		for {
			dg, err := echoSock.RecvFrom(p)
			if err != nil {
				return
			}
			_ = echoSock.SendTo(dg.SrcPort, dg.Data)
		}
	})

	c := gclib.C{G: m.Genesys, Wait: cfg.Wait}
	res := ChaosResult{Latency: obs.NewHistogram(), Validated: true}
	want := newPatternWindow(chaosPatternSeed)
	note := func(e errno.Errno) bool {
		if e == errno.OK {
			res.OpsOK++
			return true
		}
		res.OpsFailed++
		return false
	}

	m.E.Spawn("chaos-host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "chaos", WorkGroups: cfg.WorkGroups, WGSize: cfg.WGSize,
			Fn: func(w *gpu.Wavefront) {
				start := w.P.Now()
				wg := w.WG.ID
				off := int64(wg) * cfg.ChunkBytes
				lead := w.IsLeader()

				// SSD leg: open + pread + validate. Only the leader's
				// request reads, so only the leader has a destination.
				var buf []byte
				if lead {
					buf = make([]byte, cfg.ChunkBytes)
				}
				fd, e := c.Open(w, "/data/chaos.dat", fs.O_RDONLY)
				if lead && note(e) {
					n, e2 := c.Pread(w, fd, buf, off)
					if note(e2) && !want.readValid(int64(n), buf, off) {
						res.Validated = false
					}
					note(c.Close(w, fd))
				} else if e == errno.OK {
					// Non-leaders still participate in the collectives.
					_, _ = c.Pread(w, fd, nil, off)
					_ = c.Close(w, fd)
				}

				// tmpfs leg: open + pwrite + close.
				out := fmt.Sprintf("/tmp/chaos.%d", wg)
				ofd, e := c.Open(w, out, fs.O_CREAT|fs.O_WRONLY|fs.O_TRUNC)
				if lead && note(e) {
					_, e2 := c.Pwrite(w, ofd, buf, 0)
					note(e2)
					note(c.Close(w, ofd))
				} else if e == errno.OK {
					_, _ = c.Pwrite(w, ofd, buf, 0)
					_ = c.Close(w, ofd)
				}

				// UDP leg: request/response with timeout + resend — the
				// application-level recovery injected drops force.
				sfd, e := c.Socket(w)
				if lead {
					note(e)
				}
				if e == errno.OK {
					_ = c.Bind(w, sfd, 0)
					req := make([]byte, 16)
					binary.LittleEndian.PutUint64(req, uint64(wg)|0xc4a0500000000000)
					done := false
					for attempt := 0; attempt <= cfg.MaxResends && !done; attempt++ {
						_, se := c.SendTo(w, sfd, req, cfg.EchoPort)
						if se != errno.OK {
							continue // resets/EAGAIN: resend
						}
						rbuf := make([]byte, 16)
						n, _, re := c.RecvFromTimeout(w, sfd, rbuf, cfg.NetTimeout)
						if re == errno.OK {
							if lead {
								if n != len(req) || binary.LittleEndian.Uint64(rbuf) !=
									binary.LittleEndian.Uint64(req) {
									res.Validated = false
								}
								res.EchoOK++
							}
							done = true
						}
					}
					if lead && !done {
						res.EchoGaveUp++
					}
					_ = c.Close(w, sfd)
				}

				if lead {
					res.Latency.Add((w.P.Now() - start).Micro())
				}
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
		res.Runtime = p.Now() - k.LaunchedAt
	})
	if err := m.Run(); err != nil {
		return ChaosResult{}, err
	}
	return res, nil
}
