package movielens

import (
	"math"
	"math/rand"
	"testing"
)

// TestZipfMatchesMathRand draws a million values from zipf and from a
// same-seeded rand.Zipf for every exponent and range pair, and checks
// both the values and that the two rngs end in the same state.
func TestZipfMatchesMathRand(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, s := range []float64{1.01, 1.05, 1.07, 1.5, 3} {
		for _, imax := range []uint64{1, 2, 9, 449, 4_499, 8_999, 28_829} {
			seed := int64(imax)*31 + int64(s*1000)
			ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want, got := rand.NewZipf(ra, s, 1, imax), newZipf(rb, s, imax)
			for i := range draws {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("s=%v imax=%d draw %d: %d, want %d", s, imax, i, g, w)
				}
			}
			if a, b := ra.Int63(), rb.Int63(); a != b {
				t.Fatalf("s=%v imax=%d: rng streams diverged after %d draws", s, imax, draws)
			}
		}
	}
}

// scriptSource returns the queued values first, then its fallback's, and
// counts every call.
type scriptSource struct {
	queue    []int64
	fallback rand.Source
	calls    int
}

func (s *scriptSource) Int63() int64 {
	s.calls++
	if len(s.queue) > 0 {
		v := s.queue[0]
		s.queue = s.queue[1:]
		return v
	}
	return s.fallback.Int63()
}

func (s *scriptSource) Seed(int64) { panic("scriptSource: Seed") }

// TestZipfBoundaries aims ur within ±64 ulps of every cell edge of the
// benchmark's 4 500-item table — each h(j−½), where math/rand's k changes,
// and each h(j−s), where its squeeze stops — and checks each draw's value
// and the number of source calls it consumed against rand.Zipf.
func TestZipfBoundaries(t *testing.T) {
	const s, imax, span = 1.07, 4_499, 64
	sa := &scriptSource{fallback: rand.NewSource(7)}
	sb := &scriptSource{fallback: rand.NewSource(7)}
	want, got := rand.NewZipf(rand.New(sa), s, 1, imax), newZipf(rand.New(sb), s, imax)
	probes := 0
	probe := func(edge float64) {
		for k, u := -span, nextN(edge, -span); k <= span; k, u = k+1, math.Nextafter(u, math.Inf(1)) {
			r := (u - got.hxm) / got.hx0minusHxm
			if !(r >= 0 && r < 1) {
				continue
			}
			v := int64(r * (1 << 63))
			sa.queue, sb.queue = append(sa.queue[:0], v), append(sb.queue[:0], v)
			w, g := want.Uint64(), got.Uint64()
			if w != g || sa.calls != sb.calls {
				t.Fatalf("edge %v%+d ulps: %d after %d calls, want %d after %d", edge, k, g, sb.calls, w, sa.calls)
			}
			probes++
		}
	}
	for j := range imax + 1 {
		probe(got.h(float64(j) - 0.5))
		probe(got.h(float64(j) - got.s))
	}
	if probes < imax*span {
		t.Fatalf("only %d probes landed in range", probes)
	}
}

// nextN steps n ulps from x, toward +Inf for n > 0.
func nextN(x float64, n int) float64 {
	dir := math.Inf(1)
	if n < 0 {
		dir, n = math.Inf(-1), -n
	}
	for range n {
		x = math.Nextafter(x, dir)
	}
	return x
}

func FuzzZipf(f *testing.F) {
	f.Add(int64(33), math.Float64bits(1.07), uint64(4_499))
	f.Add(int64(25), math.Float64bits(1.05), uint64(28_829))
	f.Add(int64(1), math.Float64bits(3), uint64(1))
	f.Add(int64(9), math.Float64bits(1.01), uint64(0))
	f.Add(int64(5), math.Float64bits(1+1e-12), uint64(4_499))
	f.Fuzz(func(t *testing.T, seed int64, sBits uint64, imax uint64) {
		// Exponents in [1+1e-12, 16] as given, else spread over
		// [1.001, 16]; ranges up to the 25M-capped catalog. Near 1 every
		// guarded edge of the table lies below the range of ur.
		s := math.Float64frombits(sBits)
		if !(s >= 1+1e-12 && s <= 16) {
			s = 1.001 + float64(sBits>>11)*(15.0/(1<<53))
		}
		imax %= 28_830
		ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		want, got := rand.NewZipf(ra, s, 1, imax), newZipf(rb, s, imax)
		for i := range 4096 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("s=%v imax=%d draw %d: %d, want %d", s, imax, i, g, w)
			}
		}
		if a, b := ra.Int63(), rb.Int63(); a != b {
			t.Fatalf("s=%v imax=%d: rng streams diverged", s, imax)
		}
	})
}

// BenchmarkZipf compares one draw of the table-driven sampler with one of
// rand.Zipf at the benchmark corpus's shape (s = 1.07, 4 500 items).
func BenchmarkZipf(b *testing.B) {
	const s, imax = 1.07, 4_499
	b.Run("mathrand", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), s, 1, imax)
		b.ResetTimer()
		for range b.N {
			z.Uint64()
		}
	})
	b.Run("table", func(b *testing.B) {
		z := newZipf(rand.New(rand.NewSource(1)), s, imax)
		b.ResetTimer()
		for range b.N {
			z.Uint64()
		}
	})
}
