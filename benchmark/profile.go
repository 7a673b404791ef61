package main

// A minimal reader for the gzip-compressed protobuf profiles that
// runtime/pprof writes, enough to walk each CPU sample's stack, and the
// attribution of those samples to the simulator's packages (layers).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuSample is one sample of a decoded profile, its stack resolved to
// function names, leaf first (inlined callees before their callers).
type cpuSample struct {
	stack []string
	value int64 // last sample value: CPU nanoseconds for a CPU profile
}

// Field numbers from profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: a varint value, or the bytes of a
// length-delimited one.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints returns a repeated integer field's values, which may arrive
// packed (one length-delimited field) or one varint per field.
func pbUints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseProfile decodes the samples of a (possibly gzip-compressed) pprof
// profile.
func parseProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	fields, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id → string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct{ locs, vals []uint64 }
	var raw []rawSample
	for _, f := range fields {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.data))
		case fProfileFunction:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case fFunctionID:
					id = g.value
				case fFunctionName:
					name = g.value
				}
			}
			funcName[id] = name
		case fProfileLocation:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case fLocationID:
					id = g.value
				case fLocationLine:
					line, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == fLineFunction {
							fns = append(fns, h.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fProfileSample:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range sub {
				vs, err := pbUints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case fSampleLocation:
					s.locs = append(s.locs, vs...)
				case fSampleValue:
					s.vals = append(s.vals, vs...)
				}
			}
			raw = append(raw, s)
		}
	}
	var out []cpuSample
	for _, s := range raw {
		if len(s.vals) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		cs := cpuSample{value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: bad function reference %d", fn)
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// Layer names for samples no simulator frame claims.
const (
	layerGC    = "runtime.gc"
	layerSched = "runtime.sched" // the goroutine scheduler on its own stack
	layerOther = "runtime.other"
	layerBench = "bench" // the benchmark's own code: input checks, digests
)

// frameLayer returns the layer a function belongs to: the package under
// genesys/internal/, "bench" for the benchmark's own main package, or ""
// for anything else (runtime, standard library).
func frameLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "genesys/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return layerBench
	}
	return ""
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.forEachP", "runtime.gcMarkDone", "runtime.GC"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isHandoffFrame matches the runtime's channel, park, ready and schedule
// paths: the cost of switching between goroutine-backed simulation procs.
func isHandoffFrame(fn string) bool {
	for _, p := range []string{"runtime.chansend", "runtime.chanrecv", "runtime.send",
		"runtime.recv", "runtime.gopark", "runtime.park_m", "runtime.goready",
		"runtime.ready", "runtime.selectgo", "runtime.schedule", "runtime.findRunnable",
		"runtime.mcall"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerShares is the traced run's attribution of CPU time.
type layerShares struct {
	SelfPct    map[string]float64 `json:"self_pct"`
	HandoffPct float64            `json:"sim_handoff_pct"` // share of sim's samples
	Samples    int                `json:"samples"`
}

// attribute assigns each sample to the innermost frame that belongs to a
// layer, so a memmove under fs.WriteAt counts as fs and goroutine parking
// under sim.(*Proc) counts as sim. Samples with no such frame go to
// runtime.gc when a garbage-collector frame is on the stack, to
// runtime.sched when the scheduler is (it runs on its own stack, so the
// proc switch that called it is not on the sampled stack), and to
// runtime.other otherwise.
func attribute(samples []cpuSample) layerShares {
	by := map[string]int64{}
	var total, sim, simHandoff int64
	for _, s := range samples {
		layer := ""
		for _, fn := range s.stack {
			if layer = frameLayer(fn); layer != "" {
				break
			}
		}
		if layer == "" {
			layer = layerOther
			for _, fn := range s.stack {
				if isGCFrame(fn) {
					layer = layerGC
					break
				}
				if isHandoffFrame(fn) {
					layer = layerSched
				}
			}
		}
		by[layer] += s.value
		total += s.value
		if layer == "sim" {
			sim += s.value
			for _, fn := range s.stack {
				if isHandoffFrame(fn) {
					simHandoff += s.value
					break
				}
			}
		}
	}
	out := layerShares{SelfPct: map[string]float64{}, Samples: len(samples)}
	for l, v := range by {
		out.SelfPct[l] = pct(v, total)
	}
	out.HandoffPct = pct(simHandoff, sim)
	return out
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// layerTable renders shares as rows sorted by share, largest first.
func layerTable(w string, s layerShares) string {
	names := make([]string, 0, len(s.SelfPct))
	for n := range s.SelfPct {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if s.SelfPct[names[i]] != s.SelfPct[names[j]] {
			return s.SelfPct[names[i]] > s.SelfPct[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "layers of %s (%d CPU samples; sim handoff %.1f%% of sim)\n", w, s.Samples, s.HandoffPct)
	sum := 0.0
	for _, n := range names {
		fmt.Fprintf(&b, "  %-16s %6.2f%%\n", n, s.SelfPct[n])
		sum += s.SelfPct[n]
	}
	fmt.Fprintf(&b, "  %-16s %6.2f%%\n", "total", sum)
	return b.String()
}
