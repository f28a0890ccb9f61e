package xrand

import (
	"math/rand"
	"testing"
)

// TestGoldenStream pins the splitmix64 output for a fixed seed. Recorded
// experiment expectations depend on these streams: if this test fails, the
// generator changed and every recorded metric must be regenerated
// (EXPERIMENTS.md, "Regenerating the numbers").
func TestGoldenStream(t *testing.T) {
	s := NewSource(1)
	want := []uint64{
		0x910a2dec89025cc1,
		0xbeeb8da1658eec67,
		0xf893a2eefb32555e,
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("Uint64() #%d = %#x, want %#x", i, got, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	if New(1).Uint64() == New(2).Uint64() {
		t.Error("different seeds produced identical first outputs")
	}
	// Sequential seeds must decorrelate (the whole point of the mixer).
	if New(7).Float64() == New(8).Float64() {
		t.Error("sequential seeds produced identical Float64")
	}
}

func TestSeedResets(t *testing.T) {
	s := NewSource(5)
	first := s.Uint64()
	s.Uint64()
	s.Seed(5)
	if got := s.Uint64(); got != first {
		t.Errorf("Seed(5) did not reset the stream: %#x vs %#x", got, first)
	}
}

// TestPooledMatchesNew: a pooled generator yields New(seed)'s stream
// whatever it drew before Put — a partial Read included, which leaves the
// Rand holding unread bytes of its own.
func TestPooledMatchesNew(t *testing.T) {
	var used [3]byte
	for seed := int64(-3); seed < 40; seed++ {
		r := Get(seed * 7919)
		r.Intn(10)
		r.NormFloat64()
		r.Read(used[:])
		Put(r)

		got, want := Get(seed), New(seed)
		var gb, wb [5]byte
		got.Read(gb[:])
		want.Read(wb[:])
		if gb != wb {
			t.Fatalf("seed %d: pooled Read %x, New's %x", seed, gb, wb)
		}
		for i := 0; i < 64; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: pooled %#x, New's %#x", seed, i, g, w)
			}
		}
		Put(got)
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := NewSource(-99)
	for i := 0; i < 1000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63() = %d, want non-negative", v)
		}
	}
}

// TestUniformity is a coarse sanity check that the source drives math/rand
// acceptably: mean of Float64 near 0.5, Intn(k) hits every residue.
func TestUniformity(t *testing.T) {
	rng := New(3)
	var sum float64
	const n = 20000
	hits := make([]int, 8)
	for i := 0; i < n; i++ {
		sum += rng.Float64()
		hits[rng.Intn(8)]++
	}
	if mean := sum / n; mean < 0.48 || mean > 0.52 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
	for r, h := range hits {
		if h < n/8/2 {
			t.Errorf("Intn(8) residue %d hit %d times, want ~%d", r, h, n/8)
		}
	}
}

func TestHashString(t *testing.T) {
	if HashString(1, "a") == HashString(1, "b") {
		t.Error("different strings should give different sub-seeds")
	}
	if HashString(1, "a") == HashString(2, "a") {
		t.Error("different seeds should give different sub-seeds")
	}
	if HashString(1, "a") != HashString(1, "a") {
		t.Error("sub-seed not deterministic")
	}
	// A caller that keeps Hash(name) seeds the stream with one Mix; that must
	// be the sub-seed HashString always gave (values recorded before the split).
	for _, tc := range []struct {
		seed uint64
		s    string
		want uint64
	}{
		{0x1234, "topic", 0x307b14287e39c70c},
		{0, "", 0xf52a15e9a9b5e89b},
		{^uint64(0), "img_embedding", 0xe76bbed4d51f2b7d},
	} {
		if got := HashString(tc.seed, tc.s); got != tc.want || got != Mix(tc.seed^Hash(tc.s)) {
			t.Errorf("HashString(%#x, %q) = %#x, Mix(seed^Hash) = %#x, want %#x", tc.seed, tc.s, got, Mix(tc.seed^Hash(tc.s)), tc.want)
		}
	}
}

// TestConstructionCheap asserts O(1) construction cost: building a Rand
// allocates one object holding the Rand and its Source, not a large seeded
// state.
func TestConstructionCheap(t *testing.T) {
	var sink *rand.Rand
	allocs := testing.AllocsPerRun(100, func() {
		sink = New(123)
	})
	if allocs > 1 {
		t.Errorf("New allocates %v objects, want 1", allocs)
	}
	if want := rand.New(NewSource(123)); sink.Uint64() != want.Uint64() || sink.Intn(10) != want.Intn(10) {
		t.Error("New's stream differs from rand.New(NewSource(seed))")
	}
}

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = New(int64(i))
	}
}

func BenchmarkLegacyNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rand.New(rand.NewSource(int64(i)))
	}
}

// countingSource counts Int63 draws, so a test can tell that math/rand's
// int31n took its rejection branch (more draws than swaps).
type countingSource struct {
	Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// shufflePair shuffles 0..n-1 with rand.New(src).Shuffle and with
// ShuffleInts from the same seed and reports the first disagreement; it
// returns how many draws math/rand rejected.
func shufflePair(t testing.TB, seed int64, n int) (rejected int) {
	t.Helper()
	want, got := make([]int32, n), make([]int32, n)
	for i := range want {
		want[i], got[i] = int32(i), int32(i)
	}
	ref := &countingSource{Source: Source{state: uint64(seed)}}
	rand.New(ref).Shuffle(n, func(a, b int) { want[a], want[b] = want[b], want[a] })
	src := NewSource(seed)
	src.ShuffleInts(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d len %d: position %d holds %d, math/rand put %d", seed, n, i, got[i], want[i])
		}
	}
	if src.state != ref.state {
		t.Fatalf("seed %d len %d: sources diverged after the shuffle (different draw counts)", seed, n)
	}
	return ref.draws - max(n-1, 0)
}

// TestShuffleIntsMatchesMathRand requires ShuffleInts to equal
// rand.New(src).Shuffle element for element, and to leave the source in the
// same state, over lengths 0–5000 under 50 seeds: every seed takes every
// length up to 256 and every 50th length above (each seed a different
// residue, so the seeds together cover every length). int31n's rejection
// loop fires about once per 2^34/n² shuffles of length n — too rare for the
// sweep to rely on — so (seed, length) pairs found by search pin it, and the
// test fails if they stop reaching it.
func TestShuffleIntsMatchesMathRand(t *testing.T) {
	for _, c := range []struct {
		seed int64
		n    int
	}{{1197, 5000}, {1289, 5000}, {1436, 5000}, {35039, 1500}, {37963, 1500}, {46277, 1500}} {
		if shufflePair(t, c.seed, c.n) == 0 {
			t.Errorf("seed %d len %d no longer reaches the rejection loop", c.seed, c.n)
		}
	}
	for s := 0; s < 50; s++ {
		seed := int64(s)*0x9e3779b9 + 7
		for n := 0; n <= 256; n++ {
			shufflePair(t, seed, n)
		}
		for n := 257 + s; n <= 5000; n += 50 {
			shufflePair(t, seed, n)
		}
	}
}

// FuzzShuffleIntsMatchesMathRand is the same equivalence over arbitrary
// seeds and lengths.
func FuzzShuffleIntsMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(1), uint16(1))
	f.Add(int64(-7), uint16(2))
	f.Add(int64(1197), uint16(5000))
	f.Add(int64(35039), uint16(1500))
	f.Add(int64(1)<<62, uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		shufflePair(t, seed, int(n))
	})
}

// stoppedPair shuffles 0..n-1 with ShuffleInts and with ShuffleIntsDownTo(p,
// m) from the same seed and requires the two to agree on p[m:] element for
// element. Both are permutations of 0..n-1, so p[:m] then holds the same set.
func stoppedPair(t testing.TB, seed int64, n, m int) {
	t.Helper()
	full, got := make([]int32, n), make([]int32, n)
	for i := range full {
		full[i], got[i] = int32(i), int32(i)
	}
	NewSource(seed).ShuffleInts(full)
	NewSource(seed).ShuffleIntsDownTo(got, m)
	for i := max(m, 0); i < n; i++ {
		if got[i] != full[i] {
			t.Fatalf("seed %d len %d stopped at %d: position %d holds %d, the full shuffle put %d", seed, n, m, i, got[i], full[i])
		}
	}
}

// TestShuffleIntsDownToMatchesFull: for every length up to 300 and every stop
// m from 0 to the length, the stopped shuffle leaves in p[:m] the set the full
// shuffle leaves there — including the rejection-loop pairs
// TestShuffleIntsMatchesMathRand pins.
func TestShuffleIntsDownToMatchesFull(t *testing.T) {
	for s := 0; s < 5; s++ {
		seed := int64(s)*0x9e3779b9 + 11
		for n := 0; n <= 300; n++ {
			for m := 0; m <= n; m++ {
				stoppedPair(t, seed, n, m)
			}
		}
	}
	for _, c := range []struct {
		seed int64
		n    int
	}{{1197, 5000}, {35039, 1500}} {
		for _, m := range []int{0, 1, 200, c.n / 2, c.n - 1, c.n} {
			stoppedPair(t, c.seed, c.n, m)
		}
	}
}

// FuzzShuffleIntsDownToMatchesFull is the same agreement over arbitrary
// seeds, lengths and stops (a stop past the length stops at once).
func FuzzShuffleIntsDownToMatchesFull(f *testing.F) {
	f.Add(int64(0), uint16(0), uint16(0))
	f.Add(int64(3), uint16(3300), uint16(200))
	f.Add(int64(1197), uint16(5000), uint16(4999))
	f.Add(int64(-5), uint16(10), uint16(40))
	f.Fuzz(func(t *testing.T, seed int64, n, m uint16) {
		stoppedPair(t, seed, int(n), int(m))
	})
}

func BenchmarkShuffleInts(b *testing.B) {
	p := make([]int32, 3300)
	src := NewSource(1)
	for i := 0; i < b.N; i++ {
		src.ShuffleInts(p)
	}
}
