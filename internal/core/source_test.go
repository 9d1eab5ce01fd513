package core

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// sourceSeeds lists the edge cases of math/rand's seed normalisation
// (seed mod 2^31−1, negatives folded up, 0 replaced by 89482311) and a
// spread of mixed seeds.
func sourceSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 89482311, -89482311, m, -m, m - 1, m + 1, -m - 1,
		2 * m, -2 * m, 3 * m, 1000 * m, -1000 * m, math.MaxInt64 / m * m, math.MinInt64 / m * m,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 1000; i++ {
		x += 0x9E3779B97F4A7C15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		seeds = append(seeds, int64(z^z>>31))
	}
	for i := int64(-50); i < 50; i++ {
		seeds = append(seeds, i)
	}
	return seeds
}

// draw makes the i-th call of a fixed mix over the *rand.Rand methods this
// repo uses and folds its result into one word.
func draw(r *rand.Rand, i int, buf []byte) uint64 {
	switch i % 8 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return uint64(r.Intn(1 + i*7919%100003))
	case 2:
		return uint64(r.Int31n(int32(1 + i*31%1000)))
	case 3:
		return math.Float64bits(r.Float64())
	case 4:
		var h uint64
		for _, v := range r.Perm(1 + i%17) {
			h = h*31 + uint64(v)
		}
		return h
	case 5:
		p := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		r.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
		var h uint64
		for _, v := range p {
			h = h*31 + uint64(v)
		}
		return h
	case 6:
		b := buf[:1+i%13]
		r.Read(b)
		var h uint64
		for _, v := range b {
			h = h*257 + uint64(v)
		}
		return h
	default:
		return r.Uint64()
	}
}

// TestNodeSourceMatchesMathRand pins nodeSource to math/rand's source: the
// same draws through every *rand.Rand method the repo calls, for every
// seed in sourceSeeds, and the size that puts it in a smaller size class.
func TestNodeSourceMatchesMathRand(t *testing.T) {
	// 4 864 B is a Go size class; with int tap and feed the struct is
	// 4 872 B and rounds up to the 5 376 B class, as math/rand's does.
	if sz := unsafe.Sizeof(nodeSource{}); sz != 4864 {
		t.Fatalf("nodeSource is %d B, want 4864", sz)
	}
	const draws = 2000
	buf := make([]byte, 16)
	for _, seed := range sourceSeeds() {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newSource(seed))
		for i := 0; i < draws; i++ {
			if w, g := draw(want, i, buf), draw(got, i, buf); w != g {
				t.Fatalf("seed %d: draw %d (kind %d) = %#x, math/rand gives %#x", seed, i, i%8, g, w)
			}
		}
		// Reseeding through the Rand resets the stream like math/rand's.
		want.Seed(seed ^ 5)
		got.Seed(seed ^ 5)
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: after Seed, Int63 = %d, math/rand gives %d", seed^5, g, w)
		}
	}
}

// FuzzNodeSource holds nodeSource to math/rand as the oracle for the first
// n raw draws of any seed.
func FuzzNodeSource(f *testing.F) {
	for _, seed := range []int64{0, 89482311, 1<<31 - 1, -(1<<31 - 1), math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(1300))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for i := 0; i < int(n); i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i, g, w)
			}
		}
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 after %d draws = %d, math/rand gives %d", seed, n, g, w)
		}
	})
}

var sourceSink rand.Source

// BenchmarkNewSource compares building one node's source with math/rand's;
// the sink keeps both on the heap, as a node's is.
func BenchmarkNewSource(b *testing.B) {
	b.Run("node", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sourceSink = newSource(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sourceSink = rand.NewSource(int64(i))
		}
	})
}
