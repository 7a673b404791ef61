package workloads

import (
	"bytes"
	"math/rand"
	"testing"

	"genesys/internal/platform"
)

// highSource replays a fixed list of Int63 values, cycling. It lets a
// test hand math/rand values above Int31n's rejection bound, which a
// seeded source produces too rarely to rely on.
type highSource struct {
	vals []int64
	i    int
}

func (s *highSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func (s *highSource) Seed(int64) {}

// noiseRef is the per-byte loop noiseFill replaces.
func noiseRef(rng *rand.Rand, b []byte) {
	for i := range b {
		b[i] = byte('a' + rng.Intn(20))
	}
}

func TestNoiseFillMatchesIntn(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 42, -7} {
		for _, n := range []int{0, 1, 19, 20, 4096, 100003} {
			want := make([]byte, n)
			got := make([]byte, n)
			ra := rand.New(rand.NewSource(seed))
			rb := rand.New(rand.NewSource(seed))
			noiseRef(ra, want)
			noiseFill(rb, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d n %d: noiseFill differs from the Intn loop", seed, n)
			}
			// The streams must also leave the source in the same place.
			if ra.Int63() != rb.Int63() {
				t.Fatalf("seed %d n %d: rng streams diverged after the fill", seed, n)
			}
		}
	}
}

func TestNoiseFillRetriesAboveBound(t *testing.T) {
	const bound = 1<<31 - 1 - (1<<31)%20
	top := func(v int64) int64 { return v << 32 } // Int31 keeps the top 31 bits
	vals := []int64{
		top(bound + 1),   // rejected
		top(1<<31 - 1),   // rejected
		top(bound),       // accepted: bound % 20
		top(7),           // accepted
		top(bound + 5),   // rejected
		top(0) | 1<<31,   // accepted: low bits are discarded
		top(bound - 1),   // accepted
		top(1<<31 - 2),   // rejected
		top(123456789),   // accepted
		top(bound+1) | 3, // rejected
	}
	for _, n := range []int{1, 3, 6, 64} {
		want := make([]byte, n)
		got := make([]byte, n)
		noiseRef(rand.New(&highSource{vals: vals}), want)
		src := &highSource{vals: vals}
		noiseFill(rand.New(src), got)
		if !bytes.Equal(got, want) {
			t.Fatalf("n %d: got %q, want %q", n, got, want)
		}
		if src.i <= n {
			t.Fatalf("n %d: %d draws, so the rejection path never ran", n, src.i)
		}
	}
}

func TestFillPatternMatchesFormula(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4099, 1 << 20} {
		for _, seed := range []byte{0, 7, 200} {
			b := make([]byte, n)
			fillPattern(b, seed)
			for i, c := range b {
				if c != byte(i)*31+seed {
					t.Fatalf("n %d seed %d: b[%d] = %d, want %d", n, seed, i, c, byte(i)*31+seed)
				}
			}
		}
	}
}

// TestPermuteBlockMatchesFormula: one round moves byte i to
// (i*257+31) mod n, and for every n prime to 257 a composed pass of R
// rounds equals R single rounds.
func TestPermuteBlockMatchesFormula(t *testing.T) {
	for _, n := range []int{0, 1, 31, 256, 257, 258, 8192} {
		b := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(b)
		want := make([]byte, n)
		for i := 0; i < n; i++ {
			want[(i*257+31)%n] = b[i]
		}
		orig := bytes.Clone(b)
		permuteBlock(b, make([]byte, n), 1)
		if !bytes.Equal(b, want) {
			t.Fatalf("n %d: permuteBlock differs from (i*257+31)%%n", n)
		}
		if n%257 == 0 {
			continue
		}
		for rounds := 1; rounds <= 32; rounds *= 2 {
			single := bytes.Clone(orig)
			for r := 0; r < rounds; r++ {
				permuteBlock(single, make([]byte, n), 1)
			}
			composed := bytes.Clone(orig)
			permuteBlock(composed, make([]byte, n), rounds)
			if !bytes.Equal(composed, single) {
				t.Fatalf("n %d: %d rounds in one pass differ from %d single rounds", n, rounds, rounds)
			}
		}
	}
}

// TestPermuteCheckSeesOffsetError: a composed pass whose additive
// constant is off by 256 moves every byte 256 places further. Over
// fillPattern's 256-byte period that output equals the right one, so
// permute's input must not repeat that way for the check to reject it.
func TestPermuteCheckSeesOffsetError(t *testing.T) {
	const n, rounds = 8 << 10, 3
	good := permuteInput(1, n)[0]
	permuteBlock(good, make([]byte, n), rounds)
	if !permutedValid(good, 1, n, rounds) {
		t.Fatal("correct output rejected")
	}
	shifted := make([]byte, n)
	for i, c := range good {
		shifted[(i+256)%n] = c
	}
	if permutedValid(shifted, 1, n, rounds) {
		t.Fatal("output with the constant shifted by 256 accepted")
	}
}

// TestMCTableSharesValues: every memcached value is fillPattern with
// seed byte(b*31+e), and entries with the same seed share one backing
// array, so a table holds at most 256 distinct values however large.
func TestMCTableSharesValues(t *testing.T) {
	cfg := MemcachedConfig{Buckets: 64, ElemsPerBucket: 1024, ValueBytes: 1024}
	tab := newMCTable(cfg)
	arrays := map[*byte]bool{}
	want := make([]byte, cfg.ValueBytes)
	for b := 0; b < cfg.Buckets; b++ {
		for e := 0; e < cfg.ElemsPerBucket; e++ {
			val, _ := tab.get(b, e)
			fillPattern(want, byte(b*31+e))
			if !bytes.Equal(val, want) {
				t.Fatalf("value (%d, %d) is not fillPattern(%d)", b, e, byte(b*31+e))
			}
			arrays[&val[0]] = true
		}
	}
	if len(arrays) > 256 {
		t.Fatalf("%d distinct value arrays, want at most 256", len(arrays))
	}
}

// TestStagePatternMatchesFillPattern: the staged file equals a whole
// fillPattern buffer, also at sizes that are not multiples of the 64 KiB
// staging chunk.
func TestStagePatternMatchesFillPattern(t *testing.T) {
	m := platform.New(platform.DefaultConfig())
	defer m.Shutdown()
	for _, size := range []int64{0, 1, 255, 64<<10 - 1, 64 << 10, 64<<10 + 1, 3*64<<10 + 4097} {
		for _, path := range []string{"/tmp/staged", "/data/staged"} {
			if err := stagePattern(m, path, size, 7); err != nil {
				t.Fatal(err)
			}
			got, err := m.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, size)
			fillPattern(want, 7)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s staged at %d bytes differs from fillPattern", path, size)
			}
		}
	}
}
