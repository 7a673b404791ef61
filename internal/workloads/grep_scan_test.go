package workloads

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"genesys/internal/platform"
)

// scanChunkRef is the scan the matcher replaced: one strings.Index pass
// per word, keeping the earliest offset. It is the matcher's reference.
func scanChunkRef(chunk []byte, words []string) int {
	best := -1
	s := string(chunk)
	for _, w := range words {
		if i := strings.Index(s, w); i >= 0 && (best < 0 || i < best) {
			best = i
		}
	}
	return best
}

func checkScan(t *testing.T, chunk []byte, words []string) {
	t.Helper()
	if got, want := newMatcher(words).index(chunk), scanChunkRef(chunk, words); got != want {
		t.Fatalf("words %q, chunk %q: index = %d, reference %d", words, chunk, got, want)
	}
}

// TestScanChunkMatchesReference: the one-pass matcher returns exactly
// what the per-word reference returns, the earliest start of any word.
func TestScanChunkMatchesReference(t *testing.T) {
	cases := []struct {
		chunk string
		words []string
	}{
		{"abzz", []string{"zz", "ab"}},                   // earliest, not the first word's
		{"xxabcxx", []string{"abc", "ab"}},               // one word a prefix of another
		{"xxabxabc", []string{"abc", "ab"}},              // prefix matches first
		{"xabcx", []string{"bc", "xab", "c"}},            // words not sharing a first byte
		{"qqnefneedle", []string{"needle", "nef", "nx"}}, // shared first byte
		{"needle", []string{"needle"}},                   // match at 0 filling the chunk
		{"aaaaneedle", []string{"needle"}},               // at the last possible offset
		{"aaaaneedl", []string{"needle"}},                // cut off by the chunk end
		{"xyz", []string{"z"}},                           // one-byte word at the last byte
		{"xyz", []string{"q", "yz"}},                     // one-byte word absent
		{"", []string{"a", "ab"}},                        // empty chunk
		{"a", []string{"ab", "abc"}},                     // chunk shorter than every word
		{"abc", []string{"", "c"}},                       // empty word matches at 0
		{"", []string{""}},                               // even in an empty chunk
		{"abc", nil},                                     // no words
		{"\xff\x00\xff", []string{"\x00\xff"}},           // any byte value
	}
	for _, c := range cases {
		checkScan(t, []byte(c.chunk), c.words)
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		alpha := 2 + rng.Intn(3)
		letter := func() byte { return 'a' + byte(rng.Intn(alpha)) }
		words := make([]string, 1+rng.Intn(6))
		shared := rng.Intn(2) == 0
		for i := range words {
			w := make([]byte, 1+rng.Intn(5))
			for j := range w {
				w[j] = letter()
			}
			if shared {
				w[0] = 'a'
			}
			words[i] = string(w)
		}
		chunk := make([]byte, rng.Intn(64))
		for i := range chunk {
			chunk[i] = letter()
		}
		checkScan(t, chunk, words)
	}
}

// grepChunks splits data into the chunks GPU grep reads.
func grepChunks(data []byte) [][]byte {
	var out [][]byte
	for off := 0; off < len(data); off += grepChunk {
		out = append(out, data[off:min(off+grepChunk, len(data))])
	}
	return out
}

// TestScanCorpusChunks: on every 64 KiB chunk of the default corpus, the
// matcher agrees with the reference.
func TestScanCorpusChunks(t *testing.T) {
	c := NewGrepCorpus(DefaultGrepConfig(GrepCPU))
	hits := 0
	for _, n := range c.names {
		for off, chunk := range grepChunks(c.files[n]) {
			got, want := c.scan.index(chunk), scanChunkRef(chunk, c.words)
			if got != want {
				t.Fatalf("%s chunk %d: index = %d, reference %d", n, off, got, want)
			}
			if got >= 0 {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("no chunk of the corpus matched")
	}
}

// TestGrepStraddlingWordFound: at seed 64 a planted word straddles two
// 64 KiB chunks, and every variant still finds exactly the right files.
// The variants then run again all at once on the shared corpus (its
// matcher included), which must change no result; under -race this
// checks that runs only read the corpus.
func TestGrepStraddlingWordFound(t *testing.T) {
	cfg := DefaultGrepConfig(GrepCPU)
	cfg.Seed = 64
	c := NewGrepCorpus(cfg)
	straddles := 0
	for _, n := range c.expected {
		inChunk := false
		for _, chunk := range grepChunks(c.files[n]) {
			inChunk = inChunk || c.scan.index(chunk) >= 0
		}
		if !inChunk {
			straddles++
		}
	}
	if straddles == 0 {
		t.Fatal("seed 64 plants no word across a chunk boundary")
	}
	variants := []GrepVariant{GrepCPU, GrepOpenMP, GrepGPUWorkGroup,
		GrepGPUWorkItemPoll, GrepGPUWorkItemHalt}
	run := func(m *platform.Machine, v GrepVariant) (GrepResult, error) {
		vcfg := cfg
		vcfg.Variant = v
		return RunGrep(m, vcfg, c)
	}
	want := make([]GrepResult, len(variants))
	for i, v := range variants {
		res, err := run(newM(t, 1), v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !res.Correct() {
			t.Fatalf("%v: found %v, want %v", v, res.Found, res.Expected)
		}
		want[i] = res
	}
	got := make([]GrepResult, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		m := newM(t, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(m, v)
		}()
	}
	wg.Wait()
	for i, v := range variants {
		if errs[i] != nil || !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%v run concurrently: %+v, %v; alone %+v", v, got[i], errs[i], want[i])
		}
	}
}

// FuzzScanChunk: the matcher equals the reference on any chunk and any
// comma-separated word list. Its seed corpus is in
// testdata/fuzz/FuzzScanChunk.
func FuzzScanChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, chunk []byte, list string) {
		words := strings.Split(list, ",")
		if len(words) > 64 {
			words = words[:64]
		}
		checkScan(t, chunk, words)
	})
}

var scanSink int

// BenchmarkScanChunk scans one unmatched 64 KiB chunk of the default
// corpus, as most chunks of a grep run are.
func BenchmarkScanChunk(b *testing.B) {
	cfg := DefaultGrepConfig(GrepCPU)
	cfg.Files = 2
	c := NewGrepCorpus(cfg)
	chunk := grepChunks(c.files[c.names[1]])[0]
	if scanChunkRef(chunk, c.words) >= 0 {
		b.Fatal("benchmark chunk holds a word")
	}
	for _, s := range []struct {
		name string
		scan func([]byte) int
	}{
		{"reference", func(b []byte) int { return scanChunkRef(b, c.words) }},
		{"matcher", c.scan.index},
	} {
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(len(chunk)))
			for i := 0; i < b.N; i++ {
				scanSink = s.scan(chunk)
			}
		})
	}
}
