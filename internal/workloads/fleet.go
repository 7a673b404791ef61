package workloads

// The million-client service fleet: the production traffic shape the
// ROADMAP layers over the §VIII-D memcached case study. An open-loop
// Poisson arrival process creates client sessions — each a short-lived
// UDP client or a stream connection — with Zipf-popular keys, bounded
// request timeouts and continuous connection churn. A handful of
// persistent GPU work-groups serve the whole population by multiplexing
// shard sockets through the poll syscall (memcached.go), and the run
// distills into an obs.SLOReport (goodput, p50/p99/p999, drop/timeout
// rates) served at /sys/genesys/slo.
//
// Scale strategy: a simulated client must not cost a goroutine, or a
// million of them would sink the host. UDP sessions are proc-free state
// machines driven entirely by engine callbacks — a receive handler on
// the socket plus one cancellable timeout timer — so the only per-
// session cost is a socket and a few words of state. Stream sessions,
// which need blocking connect/send semantics, run on a small fixed pool
// of worker procs that each churn through many sessions. Ephemeral-port
// exhaustion under churn surfaces as EADDRINUSE (the Bind(0) bugfix this
// scenario depends on) and is counted as a refusal in the SLO, exactly
// how an overloaded front-end refuses load.

import (
	"encoding/binary"
	"math/rand"

	"genesys/internal/errno"
	"genesys/internal/fs"
	"genesys/internal/gclib"
	"genesys/internal/gpu"
	"genesys/internal/netstack"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/sim"
)

// Fleet port plan: UDP shards at FleetUDPBase+i, the stream listener on
// FleetStreamPort (outside the shard range and the ephemeral range).
const (
	FleetUDPBase    = 11211
	FleetStreamPort = 12000
)

// FleetConfig parameterizes a service-fleet run.
type FleetConfig struct {
	Seed int64

	// UDPSessions and StreamSessions are the total client sessions of
	// each class created over the run (connection churn: sessions arrive,
	// issue requests and leave).
	UDPSessions    int
	StreamSessions int
	// ReqsPerSession is how many GETs each session issues.
	ReqsPerSession int
	// MeanInterarrival is the open-loop Poisson arrival spacing for UDP
	// sessions (exponential inter-arrival times).
	MeanInterarrival sim.Time
	// StreamInterarrival is the aggregate arrival spacing of stream
	// sessions (they are the minority class, so they arrive slower).
	StreamInterarrival sim.Time
	// Timeout bounds each request at the client; a miss counts against
	// the SLO as a timeout.
	Timeout sim.Time
	// ZipfS/ZipfV shape key popularity (s > 1; higher s = more skew).
	ZipfS, ZipfV float64

	// StreamWorkers is the size of the stream client pool.
	StreamWorkers int

	// Server shape: UDPWGs work-groups each polling SocksPerWG shard
	// sockets, plus StreamWGs work-groups sharing the stream listener;
	// WGSize threads per group.
	UDPWGs     int
	StreamWGs  int
	SocksPerWG int
	WGSize     int
	// PollTick is the server's poll deadline — the stop-flag check
	// cadence.
	PollTick sim.Time

	// Table shape (shared with the memcached case study).
	Buckets        int
	ElemsPerBucket int
	ValueBytes     int
	// GPUScanTime is the work-group's parallel lookup cost per request.
	GPUScanTime sim.Time
}

// DefaultFleetConfig scales a fleet run to the given total session
// count: ~90% short UDP sessions, ~10% stream connections.
func DefaultFleetConfig(sessions int) FleetConfig {
	if sessions < 10 {
		sessions = 10
	}
	return FleetConfig{
		Seed:               1,
		UDPSessions:        sessions - sessions/10,
		StreamSessions:     sessions / 10,
		ReqsPerSession:     2,
		MeanInterarrival:   40 * sim.Microsecond,
		StreamInterarrival: 400 * sim.Microsecond,
		Timeout:            2 * sim.Millisecond,
		ZipfS:              1.1,
		ZipfV:              1,
		StreamWorkers:      64,
		UDPWGs:             16,
		StreamWGs:          2,
		SocksPerWG:         1,
		WGSize:             64,
		PollTick:           250 * sim.Microsecond,
		Buckets:            64,
		ElemsPerBucket:     64,
		ValueBytes:         256,
		GPUScanTime:        2 * sim.Microsecond,
	}
}

// fleetHarness is the shared run state: counters feeding the SLO report
// and the termination tracking that flips the server stop flag.
type fleetHarness struct {
	m   *platform.Machine
	cfg FleetConfig

	udpLat    []latSample
	streamLat []latSample
	udp       obs.SLOClass
	stream    obs.SLOClass

	liveUDP    int  // UDP sessions in flight
	genDone    bool // UDP arrival process finished
	streamLeft int  // stream sessions not yet resolved
	stop       bool // read by the GPU serving loops each poll tick
	sessions   int64

	// sessFree recycles finished UDP session machines — struct, key
	// slice, timer and callbacks — so connection churn at fleet scale
	// costs no per-session allocation beyond the socket.
	sessFree []*udpSession
}

// latSample is one completed request's latency plus its virtual-time
// completion instant — the instant is what lets SLO exemplars point
// into the flight recorder's retained window.
type latSample struct {
	ns float64
	at sim.Time
}

// noteRequest feeds one client-observed outcome into the flight
// recorder's SLO burn-rate detector (pure accounting).
func (h *fleetHarness) noteRequest(at sim.Time, ok bool) {
	h.m.Obs.Flight.NoteRequest(at, ok)
}

// maybeStop flips the server stop flag once every session of both
// classes has resolved.
func (h *fleetHarness) maybeStop() {
	if h.genDone && h.liveUDP == 0 && h.streamLeft == 0 {
		h.stop = true
	}
}

// udpSession is one proc-free UDP client: engine callbacks (datagram
// arrival, timeout timer) drive it through its pre-drawn request list.
// Sessions recycle through the harness freelist; the hot path reuses the
// request scratch buffer, the timeout Timer (AtReuse) and two callbacks
// built once per machine — onReply and the timeout closure — so a
// session's whole request sequence allocates nothing.
type udpSession struct {
	h    *fleetHarness
	sock *netstack.Socket
	keys [][2]int // pre-drawn (bucket, elem) per request
	idx  int
	seq  uint32
	t0   sim.Time
	tmr  *sim.Timer
	port int // server shard port, fixed per session

	req     []byte // request encode scratch (SendTo copies it)
	armSeq  uint32 // seq captured when the timeout was armed
	fireFn  func() // timeout callback; reads armSeq
	replyFn func(netstack.Datagram)
}

// getSession returns a recycled (or fresh) session machine wired to h.
func (h *fleetHarness) getSession() *udpSession {
	if n := len(h.sessFree); n > 0 {
		s := h.sessFree[n-1]
		h.sessFree[n-1] = nil
		h.sessFree = h.sessFree[:n-1]
		// s.tmr is kept: it is inert by finish time and AtReuse recycles it.
		s.idx, s.seq, s.t0 = 0, 0, 0
		return s
	}
	s := &udpSession{h: h}
	s.fireFn = func() { s.onTimeout(s.armSeq) }
	s.replyFn = s.onReply
	return s
}

// start binds the session socket and fires the first request. A bind
// refusal (ephemeral range exhausted under churn) refuses the whole
// session.
func (s *udpSession) start() bool {
	s.sock = s.h.m.Net.NewSocket()
	if err := s.sock.Bind(0); err != nil {
		s.h.udp.Refused++
		return false
	}
	s.sock.SetRecvHandler(s.replyFn)
	s.sendNext()
	return true
}

func (s *udpSession) sendNext() {
	h := s.h
	if s.idx >= len(s.keys) {
		s.finish()
		return
	}
	k := s.keys[s.idx]
	s.seq++
	s.t0 = h.m.E.Now()
	h.udp.Offered++
	s.req = mcRequestInto(s.req, s.seq, k[0], k[1])
	if err := s.sock.SendTo(s.port, s.req); err != nil {
		// EAGAIN / injected reset: the request never entered the wire.
		h.udp.Refused++
		h.udp.Offered--
		s.idx++
		s.sendNext()
		return
	}
	s.armSeq = s.seq
	s.tmr = h.m.E.AtReuse(s.t0+h.cfg.Timeout, s.fireFn, s.tmr)
}

func (s *udpSession) onReply(dg netstack.Datagram) {
	if len(dg.Data) < mcReplyHdr {
		return
	}
	if binary.LittleEndian.Uint32(dg.Data[1:]) != s.seq {
		return // stale reply to a request already timed out
	}
	s.tmr.Cancel()
	h := s.h
	h.udp.Completed++
	now := h.m.E.Now()
	h.udpLat = append(h.udpLat, latSample{ns: float64(now - s.t0), at: now})
	h.noteRequest(now, true)
	s.idx++
	s.sendNext()
}

func (s *udpSession) onTimeout(seq uint32) {
	if seq != s.seq {
		return // a reply advanced the session first
	}
	s.h.udp.Timeouts++
	s.h.noteRequest(s.h.m.E.Now(), false)
	s.seq++ // invalidate any late reply to the timed-out request
	s.idx++
	s.sendNext()
}

func (s *udpSession) finish() {
	s.sock.Close()
	s.sock = nil
	s.h.liveUDP--
	s.h.sessFree = append(s.h.sessFree, s)
	s.h.maybeStop()
}

// workerSeed derives stream worker id's RNG seed from the run seed with
// a splitmix64 finalizer. The previous `seed ^ 7919*(id+1)` xor salt
// left adjacent worker ids with seeds a few low bits apart, and
// math/rand's LCG-seeded source turns nearby seeds into visibly
// correlated streams — every worker drew near-identical arrival gaps
// and key sequences, understating contention spread. The mixer's
// avalanche breaks that: one id step flips ~half the output bits.
func workerSeed(seed int64, id int) int64 {
	z := uint64(seed) + uint64(id+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// runStreamWorker churns one pool worker through its share of stream
// sessions: connect, issue fixed-size GETs with a reply deadline each,
// close, repeat.
func (h *fleetHarness) runStreamWorker(p *sim.Proc, id int) {
	cfg := h.cfg
	rng := rand.New(rand.NewSource(workerSeed(cfg.Seed, id)))
	zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Buckets-1))
	replySize := mcReplyHdr + cfg.ValueBytes
	buf := make([]byte, 4096)
	req := make([]byte, mcHdrSize)
	for sess := id; sess < cfg.StreamSessions; sess += cfg.StreamWorkers {
		p.Sleep(sim.Time(rng.ExpFloat64() * float64(cfg.StreamInterarrival) * float64(cfg.StreamWorkers)))
		h.sessions++
		sk := h.m.Net.NewStreamSocket()
		if err := sk.Connect(p, FleetStreamPort); err != nil {
			h.stream.Refused++
			sk.Close()
			h.streamLeft--
			h.maybeStop()
			continue
		}
		var seq uint32
		for r := 0; r < cfg.ReqsPerSession; r++ {
			bucket := int(zipf.Uint64())
			elem := rng.Intn(cfg.ElemsPerBucket)
			seq++
			t0 := p.Now()
			h.stream.Offered++
			req = mcRequestInto(req, seq, bucket, elem)
			if _, err := sk.Send(p, req); err != nil {
				h.stream.Drops++
				h.noteRequest(p.Now(), false)
				break
			}
			deadline := t0 + cfg.Timeout
			got := 0
			ok := true
			for got < replySize {
				left := deadline - p.Now()
				if left <= 0 {
					// RecvTimeout treats d <= 0 as "block forever"; an
					// already-expired deadline is a timeout, not a license
					// to wait indefinitely.
					h.stream.Timeouts++
					ok = false
					break
				}
				n, err := sk.RecvTimeout(p, buf[:replySize-got], left)
				if err == errno.EAGAIN {
					h.stream.Timeouts++
					ok = false
					break
				}
				if err != nil || n == 0 {
					h.stream.Drops++
					ok = false
					break
				}
				got += n
			}
			if !ok {
				h.noteRequest(p.Now(), false)
				break // conn state is ambiguous after a miss; churn it
			}
			h.stream.Completed++
			h.streamLat = append(h.streamLat, latSample{ns: float64(p.Now() - t0), at: p.Now()})
			h.noteRequest(p.Now(), true)
		}
		sk.Close()
		h.streamLeft--
		h.maybeStop()
	}
}

// FleetRun is a started service-fleet run whose engine loop the caller
// owns: StartFleet stages everything, the caller drives the engine
// (m.Run, or RunUntil for a checkpoint cut), and Finish distills the
// SLO report. RunFleet composes the three for the common case.
type FleetRun struct {
	m   *platform.Machine
	cfg FleetConfig
	h   *fleetHarness
}

// Finish distills the completed run into its SLO report and installs it
// on the machine's Observer, so /sys/genesys/slo serves it afterwards.
// Call only after the engine has run to quiescence.
func (r *FleetRun) Finish() *obs.SLOReport {
	m, cfg, h := r.m, r.cfg, r.h
	rep := &obs.SLOReport{
		Workload:   "fleet",
		Seed:       cfg.Seed,
		Clients:    cfg.UDPSessions + cfg.StreamSessions,
		Sessions:   h.sessions,
		DurationNs: int64(m.E.Now()),
	}
	h.udp.Drops = m.Net.Dropped
	fillClass(rep.Class("udp"), &h.udp, h.udpLat)
	fillClass(rep.Class("stream"), &h.stream, h.streamLat)
	rep.Finalize()
	m.Obs.SetSLO(rep)
	return rep
}

// RunFleet executes one service-fleet run and returns its SLO report.
func RunFleet(m *platform.Machine, cfg FleetConfig) (*obs.SLOReport, error) {
	r, err := StartFleet(m, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	return r.Finish(), nil
}

// StartFleet stages a service-fleet run — server sockets, serving
// kernel, arrival processes, stream worker pool — without driving the
// engine. The caller runs the engine to quiescence and then calls
// Finish on the returned FleetRun.
func StartFleet(m *platform.Machine, cfg FleetConfig) (*FleetRun, error) {
	if cfg.WGSize <= 0 {
		cfg.WGSize = 64
	}
	if cfg.PollTick <= 0 {
		cfg.PollTick = 100 * sim.Microsecond
	}
	if cfg.StreamWGs <= 0 {
		cfg.StreamWGs = 1
	}
	if cfg.StreamInterarrival <= 0 {
		cfg.StreamInterarrival = cfg.MeanInterarrival
	}
	pr := m.NewProcess("fleet")
	table := newMCTable(MemcachedConfig{
		Buckets: cfg.Buckets, ElemsPerBucket: cfg.ElemsPerBucket, ValueBytes: cfg.ValueBytes,
	})
	h := &fleetHarness{m: m, cfg: cfg, streamLeft: cfg.StreamSessions}

	// Server sockets: UDPWGs × SocksPerWG datagram shards plus the
	// stream listener, installed into the borrowed process's fd table.
	nShards := cfg.UDPWGs * cfg.SocksPerWG
	wgFDs := make([][]int, cfg.UDPWGs)
	for i := 0; i < nShards; i++ {
		sk := m.Net.NewSocket()
		if err := sk.Bind(FleetUDPBase + i); err != nil {
			return nil, err
		}
		fd, err := pr.FDs.Install(newSocketFile(sk))
		if err != nil {
			return nil, err
		}
		wg := i / cfg.SocksPerWG
		wgFDs[wg] = append(wgFDs[wg], fd)
	}
	lsk := m.Net.NewStreamSocket()
	if err := lsk.Bind(FleetStreamPort); err != nil {
		return nil, err
	}
	if err := lsk.Listen(1024); err != nil {
		return nil, err
	}
	lfd, err := pr.FDs.Install(&fs.File{Special: lsk, Path: "socket:[tcp]"})
	if err != nil {
		return nil, err
	}

	// The serving kernel: UDPWGs shard groups + 1 stream group, each
	// multiplexing through poll at work-group granularity.
	c := gclib.C{G: m.Genesys}
	udpFn := fleetUDPServerFn(c, table, wgFDs, cfg.GPUScanTime, cfg.PollTick, cfg.ValueBytes, &h.stop)
	streamFn := fleetStreamServerFn(c, table, lfd, cfg.GPUScanTime, cfg.PollTick, &h.stop)
	m.E.Spawn("fleet-server", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "fleet-serve", WorkGroups: cfg.UDPWGs + cfg.StreamWGs, WGSize: cfg.WGSize,
			Fn: func(w *gpu.Wavefront) {
				if w.WG.ID < cfg.UDPWGs {
					udpFn(w)
				} else {
					streamFn(w)
				}
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})

	// The open-loop UDP arrival process: Poisson arrivals, Zipf keys,
	// all randomness drawn here so the callback machines stay RNG-free.
	m.E.Spawn("fleet-gen", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(cfg.Seed))
		zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Buckets-1))
		for i := 0; i < cfg.UDPSessions; i++ {
			p.Sleep(sim.Time(rng.ExpFloat64() * float64(cfg.MeanInterarrival)))
			h.sessions++
			s := h.getSession()
			if cap(s.keys) < cfg.ReqsPerSession {
				s.keys = make([][2]int, cfg.ReqsPerSession)
			}
			s.keys = s.keys[:cfg.ReqsPerSession]
			for r := range s.keys {
				s.keys[r] = [2]int{int(zipf.Uint64()), rng.Intn(cfg.ElemsPerBucket)}
			}
			// Shards are load-balanced uniformly; only key popularity is
			// Zipf-skewed.
			s.port = FleetUDPBase + rng.Intn(nShards)
			h.liveUDP++
			if !s.start() {
				h.liveUDP--
				h.sessFree = append(h.sessFree, s)
			}
		}
		h.genDone = true
		h.maybeStop()
	})

	for i := 0; i < cfg.StreamWorkers; i++ {
		i := i
		m.E.Spawn("fleet-stream-worker", func(p *sim.Proc) { h.runStreamWorker(p, i) })
	}

	return &FleetRun{m: m, cfg: cfg, h: h}, nil
}

// fillClass copies the counters, distills the latency percentiles and
// exact min/max, and retains the worst requests as exemplars.
func fillClass(dst, src *obs.SLOClass, lat []latSample) {
	*dst = *src
	if len(lat) == 0 {
		return
	}
	vals := make([]float64, len(lat))
	for i, s := range lat {
		vals[i] = s.ns
	}
	ps := sim.Percentiles(vals, 0, 50, 99, 99.9, 100)
	dst.MinNs = int64(ps[0])
	dst.P50Ns, dst.P99Ns, dst.P999Ns, dst.MaxNs =
		int64(ps[1]), int64(ps[2]), int64(ps[3]), int64(ps[4])
	// Top-K worst requests in completion order; strictly-greater
	// insertion keeps the earliest on ties (deterministic).
	var ex []obs.SLOExemplar
	for _, s := range lat {
		i := len(ex)
		for i > 0 && s.ns > float64(ex[i-1].LatNs) {
			i--
		}
		if i >= obs.ExemplarK {
			continue
		}
		ex = append(ex, obs.SLOExemplar{})
		copy(ex[i+1:], ex[i:])
		ex[i] = obs.SLOExemplar{LatNs: int64(s.ns), AtNs: int64(s.at)}
		if len(ex) > obs.ExemplarK {
			ex = ex[:obs.ExemplarK]
		}
	}
	dst.Exemplars = ex
}
