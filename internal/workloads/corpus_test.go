package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"genesys/internal/platform"
)

// grepDigest hashes everything a GrepCorpus holds.
func grepDigest(c *GrepCorpus) [32]byte {
	h := sha256.New()
	for _, w := range c.words {
		h.Write([]byte(w + "\x00"))
	}
	for _, n := range c.names {
		h.Write([]byte(n + "\x00"))
		h.Write(c.files[n])
	}
	for _, n := range c.expected {
		h.Write([]byte(n + "\x00"))
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// wcDigest hashes everything a WordcountCorpus holds.
func wcDigest(c *WordcountCorpus) [32]byte {
	h := sha256.New()
	for _, w := range c.words {
		h.Write([]byte(w + "\x00"))
	}
	for _, f := range c.files {
		h.Write(f)
	}
	binary.Write(h, binary.LittleEndian, c.expected)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// TestGrepSharedCorpus: every grep variant run on one shared corpus
// reports exactly what it reports on a freshly built one — runtime,
// matches and the machine's whole metrics registry — and no run changes
// a byte of the shared corpus.
func TestGrepSharedCorpus(t *testing.T) {
	small := func(v GrepVariant) GrepConfig {
		cfg := DefaultGrepConfig(v)
		cfg.Files = 16
		cfg.FileBytes = 64 << 10
		return cfg
	}
	shared := NewGrepCorpus(small(GrepCPU))
	want := grepDigest(shared)
	for _, v := range []GrepVariant{GrepCPU, GrepOpenMP, GrepGPUWorkGroup,
		GrepGPUWorkItemPoll, GrepGPUWorkItemHalt} {
		cfg := small(v)
		run := func(c *GrepCorpus) (GrepResult, string) {
			m := newM(t, 5)
			res, err := RunGrep(m, cfg, c)
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			return res, m.Obs.Metrics.Render()
		}
		gotRes, gotMetrics := run(shared)
		if grepDigest(shared) != want {
			t.Fatalf("%v: the run wrote to the shared corpus", v)
		}
		freshRes, freshMetrics := run(NewGrepCorpus(cfg))
		if !gotRes.Correct() || !reflect.DeepEqual(gotRes, freshRes) {
			t.Fatalf("%v: shared corpus gave %+v, fresh corpus %+v", v, gotRes, freshRes)
		}
		if gotMetrics != freshMetrics {
			t.Fatalf("%v: metrics differ between shared and fresh corpus", v)
		}
	}
}

// TestWordcountSharedCorpus is TestGrepSharedCorpus for wordcount; the
// result also carries the Figure 14 disk and CPU traces.
func TestWordcountSharedCorpus(t *testing.T) {
	small := func(v WordcountVariant) WordcountConfig {
		cfg := DefaultWordcountConfig(v)
		cfg.Files = 32
		return cfg
	}
	shared := NewWordcountCorpus(small(WordcountCPU))
	want := wcDigest(shared)
	for _, v := range []WordcountVariant{WordcountCPU, WordcountGPUNoSyscall, WordcountGENESYS} {
		cfg := small(v)
		run := func(c *WordcountCorpus) (WordcountResult, string) {
			m := newM(t, 5)
			res, err := RunWordcount(m, cfg, c)
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			return res, m.Obs.Metrics.Render()
		}
		gotRes, gotMetrics := run(shared)
		if wcDigest(shared) != want {
			t.Fatalf("%v: the run wrote to the shared corpus", v)
		}
		freshRes, freshMetrics := run(NewWordcountCorpus(cfg))
		if !gotRes.Correct() || !reflect.DeepEqual(gotRes, freshRes) {
			t.Fatalf("%v: shared corpus gave %+v, fresh corpus %+v", v, gotRes, freshRes)
		}
		if gotMetrics != freshMetrics {
			t.Fatalf("%v: metrics differ between shared and fresh corpus", v)
		}
	}
}

// TestGrepReturnsRunError: a GPU whose compute units hold fewer
// wavefronts than a grep work-group needs fails the kernel launch
// inside the simulation; RunGrep returns that as an error.
func TestGrepReturnsRunError(t *testing.T) {
	cfg := DefaultGrepConfig(GrepGPUWorkGroup)
	cfg.Files, cfg.FileBytes = 2, 4<<10
	pcfg := platform.DefaultConfig()
	pcfg.GPU.WavefrontsPerCU = 2
	m := platform.New(pcfg)
	t.Cleanup(m.Shutdown)
	_, err := RunGrep(m, cfg, NewGrepCorpus(cfg))
	if err == nil || !strings.Contains(err.Error(), "wavefront slots") {
		t.Fatalf("err = %v, want the failed launch", err)
	}
}

// TestCorpusConfigMismatch: a corpus built for another file set, word
// count or seed is refused with an error, as is a missing corpus.
func TestCorpusConfigMismatch(t *testing.T) {
	g := DefaultGrepConfig(GrepGPUWorkGroup)
	g.Files, g.FileBytes = 4, 4<<10
	gc := NewGrepCorpus(g)
	for name, mut := range map[string]func(*GrepConfig){
		"files": func(c *GrepConfig) { c.Files++ },
		"bytes": func(c *GrepConfig) { c.FileBytes *= 2 },
		"words": func(c *GrepConfig) { c.Words-- },
		"seed":  func(c *GrepConfig) { c.Seed++ },
	} {
		cfg := g
		mut(&cfg)
		if _, err := RunGrep(newM(t, 1), cfg, gc); err == nil {
			t.Errorf("grep %s: mismatched corpus accepted", name)
		}
	}
	if _, err := RunGrep(newM(t, 1), g, nil); err == nil {
		t.Error("grep: nil corpus accepted")
	}

	w := DefaultWordcountConfig(WordcountCPU)
	w.Files, w.FileBytes = 2, 64<<10
	wc := NewWordcountCorpus(w)
	for name, mut := range map[string]func(*WordcountConfig){
		"files": func(c *WordcountConfig) { c.Files++ },
		"bytes": func(c *WordcountConfig) { c.FileBytes *= 2 },
		"words": func(c *WordcountConfig) { c.Words-- },
		"seed":  func(c *WordcountConfig) { c.Seed++ },
	} {
		cfg := w
		mut(&cfg)
		if _, err := RunWordcount(newM(t, 1), cfg, wc); err == nil {
			t.Errorf("wordcount %s: mismatched corpus accepted", name)
		}
	}
	if _, err := RunWordcount(newM(t, 1), w, nil); err == nil {
		t.Error("wordcount: nil corpus accepted")
	}
	// The variant and the scan rates do not shape the corpus.
	w.Variant, w.CPUScanBytesPerNS = WordcountGENESYS, 1
	if _, err := RunWordcount(newM(t, 1), w, wc); err != nil {
		t.Errorf("wordcount: matching corpus refused: %v", err)
	}
}
